"""Two-cluster optimality certification: the pairwise proximity condition and
the greedy multiplier-repair construction of a dual certificate.

Pair quantities are stored per cluster as flat arrays over the local pairs
(a, b), a < b, in row-major upper-triangle order: in a cluster of ``size``
points the pair (a, b) is at slot a * size - a (a + 1) / 2 + (b - a - 1).
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from lpkmeans.core import Partition

__all__ = [
    "TwoClusterStats",
    "PairValues",
    "ProximityReport",
    "CertifyState",
    "two_cluster_stats",
    "proximity_check",
    "gamma_values",
    "certify",
]

# A margin counts as strictly positive above this fraction of the largest
# mean cross-cluster distance, so the verdict does not depend on units.
_STRICT_MARGIN = 1e-9

# Pair-slack tiling: rows per block, the byte budget of one thread's minimum
# buffer (within a core's L2 cache), and the element operations below which
# a cluster is done inline because starting threads would cost more.
_ROW_BLOCK = 8
_TILE_BYTES = 2**20
_INLINE_WORK = 2**20

# Rows of d gathered at a time for the per-point means, and negative pairs
# selected, ordered and handed to the repair loop as Python objects at a
# time: both bound the memory beyond the O(n^2) arrays the certifier keeps.
_STATS_ROWS = 64
_WORK_CHUNK = 4096


@dataclass(frozen=True)
class TwoClusterStats:
    """Size ratios, per-point mean within/cross distances, and the eta scalar
    entering the pairwise conditions.  clusters[0] is the smaller cluster."""

    r1: float
    r2: float
    d_in: np.ndarray
    d_out: np.ndarray
    eta: float
    clusters: tuple[np.ndarray, np.ndarray]


@dataclass
class PairValues:
    """Per-cluster flat arrays over local pairs a < b."""

    clusters: tuple[np.ndarray, np.ndarray]
    values: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ProximityReport:
    verdict: str  # holds_strict | holds | fails
    margin_small: float  # min slack over pairs in the smaller cluster
    margin_large: float
    stats: TwoClusterStats


@dataclass
class CertifyState:
    """Outcome of the multiplier-repair loop.

    ``lam`` maps global triples (k, i, j), i < j, to the accumulated
    nonnegative transfer from donor pairs (i, k) and (j, k) to pair (i, j);
    residuals satisfy r_ij = gamma_ij + sum_k lam[(k,i,j)]
    - sum_k lam[(i,j,k)] - sum_k lam[(j,i,k)].
    """

    r_bar: tuple[np.ndarray, np.ndarray]
    lam: dict[tuple[int, int, int], float] = field(default_factory=dict)
    success: bool = False
    failed_pair: tuple[int, int] | None = None
    deficit: float = 0.0


def _ordered_clusters(p: Partition) -> tuple[np.ndarray, np.ndarray]:
    if p.k != 2:
        raise ValueError(f"exactly two clusters required, got K={p.k}")
    g0 = p.members(0)
    g1 = p.members(1)
    if g0.size > g1.size:
        g0, g1 = g1, g0
    return g0, g1


def two_cluster_stats(d: np.ndarray, p: Partition) -> TwoClusterStats:
    """Exact r1, r2, per-point mean distances, and eta for a 2-partition."""
    if np.shape(d) != (p.n, p.n):
        raise ValueError(
            f"distance matrix of shape {np.shape(d)} for a partition of {p.n} points,"
            f" which needs shape {(p.n, p.n)}"
        )
    g1, g2 = _ordered_clusters(p)
    n = p.n
    r1 = 2.0 * g1.size / n
    r2 = 2.0 * g2.size / n
    d_in = np.empty(n)
    d_out = np.empty(n)
    for own, other in ((g1, g2), (g2, g1)):
        # each row's mean is the same reduction over the same values as in
        # the full (own, own) and (own, other) blocks, which are never copied
        for r0 in range(0, own.size, _STATS_ROWS):
            rows = own[r0 : r0 + _STATS_ROWS]
            d_in[rows] = d[np.ix_(rows, own)].mean(axis=1)
            d_out[rows] = d[np.ix_(rows, other)].mean(axis=1)
    din1 = d_in[g1]
    din2 = d_in[g2]
    eta = (r2 / 2.0) * (
        (1.0 - r1 / r2) * din1.max()
        + (1.0 - r2 / r1) * din2.min()
        + (r1 / r2) * din1.mean()
        + (r2 / r1) * din2.mean()
    )
    return TwoClusterStats(r1=r1, r2=r2, d_in=d_in, d_out=d_out, eta=eta, clusters=(g1, g2))


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _pair_slacks(d: np.ndarray, stats: TwoClusterStats) -> tuple[np.ndarray, np.ndarray]:
    """Slack of the pairwise condition for every within-cluster pair:
    mean_k min(r d_ik + d_in_j, r d_jk + d_in_i) - d_ij - threshold,
    averaging over the opposite cluster with its size ratio r.

    With u = r d_cross - d_in[:, None], the minimum is
    d_in_i + d_in_j + min(u_ik, u_jk).  Rows a come in blocks of
    ``_ROW_BLOCK``; each block is swept over column chunks b sized so that
    the (block, chunk, m_other) minimum buffer stays within ``_TILE_BYTES``,
    and every tile is one elementwise minimum and one ``add.reduce`` over k.
    Row blocks are shared round-robin by up to one thread per usable CPU
    (inline when the work is small).  Each row is reduced over its full
    length and divided by m_other exactly as ``mean`` does, and is written
    by one thread only, so the slacks are bit for bit those of a per-row
    ``np.minimum(u[a], u[a+1:]).mean(axis=1)`` whatever the thread count;
    ``d`` is never written.  One cluster's ``u`` and buffers are released
    before the next cluster's are allocated."""
    out: list[np.ndarray] = []
    for c in (0, 1):
        own = stats.clusters[c]
        other = stats.clusters[1 - c]
        ratio = stats.r2 if c == 0 else stats.r1
        threshold = stats.eta if c == 0 else (stats.r1 / stats.r2) * stats.eta
        sz = own.size
        if sz < 2:
            out.append(np.empty(0))
            continue
        m = other.size
        din = stats.d_in[own]
        u = d[np.ix_(own, other)]  # fancy indexing copies, so u may be overwritten
        u *= ratio
        u -= din[:, None]
        slack = np.empty(sz * (sz - 1) // 2)
        starts = range(0, sz - 1, _ROW_BLOCK)
        chunk = max(1, _TILE_BYTES // (8 * _ROW_BLOCK * m))
        workers = 1 if sz * sz * m / 2 < _INLINE_WORK else min(_worker_count(), len(starts))
        # Each worker's buffers are allocated here, so the threads allocate
        # nothing that their own malloc arenas would keep resident.
        scratch = [
            (np.empty(_ROW_BLOCK * chunk * m), np.empty((_ROW_BLOCK, sz)), np.empty(sz))
            for _ in range(workers)
        ]

        def sweep(worker: int) -> None:
            buf, sums, d_ab = scratch[worker]
            for a0 in starts[worker::workers]:
                a1 = min(a0 + _ROW_BLOCK, sz - 1)
                for b0 in range(a0 + 1, sz, chunk):
                    b1 = min(b0 + chunk, sz)
                    tile = buf[: (a1 - a0) * (b1 - b0) * m].reshape(a1 - a0, b1 - b0, m)
                    np.minimum(u[a0:a1, None, :], u[None, b0:b1, :], out=tile)
                    np.add.reduce(tile, axis=2, out=sums[: a1 - a0, b0:b1])
                for a in range(a0, a1):
                    count = sz - a - 1
                    pos = a * sz - a * (a + 1) // 2
                    row = slack[pos : pos + count]
                    np.divide(sums[a - a0, a + 1 :], m, out=row)
                    row += din[a]
                    row += din[a + 1 :]
                    # mode="clip" (the indices are in range) lets take write
                    # straight into out instead of through a temporary
                    row -= np.take(d[own[a]], own[a + 1 :], out=d_ab[:count], mode="clip")
                    row -= threshold

        if workers == 1:
            sweep(0)
        else:
            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(sweep, range(workers)))
        out.append(slack)
        del u, scratch
    return out[0], out[1]


# The last evaluation of the slacks: a weakref to the distance matrix, the
# partition key (k, assign bytes, d's shape and dtype), a SHA-256 digest of
# d's bytes, and (stats, (gamma_small, gamma_large)).  proximity_check
# followed by gamma_values on the same d and partition then costs one sweep.
# The digest catches a d mutated in place; the weakref's callback clears the
# slot when d is collected, so the slot never outlives its matrix.  The slot
# is read once and replaced by one assignment, so a thread racing another
# can only miss it, never read a torn entry.
_last: tuple | None = None


def _forget(ref: weakref.ref) -> None:
    global _last
    last = _last
    if last is not None and last[0] is ref:
        _last = None


def _stats_and_gamma(
    d: np.ndarray, p: Partition
) -> tuple[TwoClusterStats, tuple[np.ndarray, np.ndarray]]:
    """Stats and read-only gamma (twice the pair slacks) of ``(d, p)``, from
    the last evaluation when it was of this same, unchanged ``d`` and this
    partition."""
    import hashlib  # here, not at import: it loads OpenSSL's libcrypto

    global _last
    d = np.asarray(d, dtype=np.float64)
    key = (p.k, p.assign.tobytes(), d.shape, d.dtype.str)
    digest = hashlib.sha256(np.ascontiguousarray(d)).digest()
    # two_cluster_stats checks d's shape; a hit's key holds a shape it accepted
    last = _last
    if last is not None and last[0]() is d and last[1] == key and last[2] == digest:
        return last[3]
    stats = two_cluster_stats(d, p)
    gamma = _pair_slacks(d, stats)
    for values in gamma:
        values *= 2.0  # exact, so min(gamma) / 2 is the slack's minimum
    # every caller shares these arrays
    for values in (*gamma, stats.d_in, stats.d_out, *stats.clusters):
        values.setflags(write=False)
    result = (stats, gamma)
    _last = (weakref.ref(d, _forget), key, digest, result)
    return result


def proximity_check(d: np.ndarray, p: Partition) -> ProximityReport:
    """Evaluate the pairwise sufficient condition; a strictly positive margin
    additionally certifies uniqueness of the optimal solution."""
    stats, (g1, g2) = _stats_and_gamma(d, p)
    margin_small = float(g1.min()) / 2.0 if g1.size else np.inf
    margin_large = float(g2.min()) / 2.0 if g2.size else np.inf
    worst = min(margin_small, margin_large)
    if worst < 0.0:
        verdict = "fails"
    elif worst > _STRICT_MARGIN * float(stats.d_out.max()):
        verdict = "holds_strict"
    else:
        verdict = "holds"
    return ProximityReport(verdict, margin_small, margin_large, stats)


def gamma_values(d: np.ndarray, p: Partition) -> PairValues:
    """Per-pair slack values, scaled by two, feeding the certificate repair.
    The arrays are read-only: a call after ``proximity_check`` on the same
    ``d`` and partition returns the ones that evaluation computed."""
    stats, gamma = _stats_and_gamma(d, p)
    return PairValues(clusters=stats.clusters, values=gamma)


def certify(gamma: PairValues, p: Partition) -> CertifyState:
    """Greedy dual-certificate construction.

    Negative-residual pairs are repaired most-negative first by transferring
    surplus from pairs (i, k), (j, k) sharing a third in-cluster point k,
    scanned in ascending index order; a pair whose scan ends still negative
    makes the whole construction fail.  Runs in Theta(n^3) time worst case.

    ``gamma`` must hold, for each cluster of ``p``, a 1-D array of
    sz (sz - 1) / 2 finite values; they are copied as float64 into the
    residuals ``r_bar``.  The scan reads and writes the residuals as Python
    floats through a ``memoryview`` of each array, and skips a donor k as
    soon as r_ak, read first, or then r_bk is <= 0, before forming the
    transfer min(-r_ab, r_ak, r_bk), which could only be positive if both
    were.  Negative pairs enter the scan ``_WORK_CHUNK`` at a time: each
    chunk is the most negative of the pairs still pending, with every pair
    tied with its last kept whole, ordered by a ``lexsort`` of its
    (value, gi, gj) keys.  Beyond the residuals, the worklist holds one
    slot number per pending pair.
    """
    g1, g2 = _ordered_clusters(p)
    if tuple(map(tuple, gamma.clusters)) != (tuple(g1), tuple(g2)):
        raise ValueError("gamma values do not match the partition's clusters")
    for c in (0, 1):
        sz = gamma.clusters[c].size
        values = gamma.values[c]
        if np.shape(values) != (sz * (sz - 1) // 2,):
            raise ValueError(
                f"gamma values of shape {np.shape(values)} for cluster {c} of {sz} points,"
                f" which needs shape {(sz * (sz - 1) // 2,)}"
            )
    r_bar = tuple(np.array(v, dtype=np.float64) for v in gamma.values)
    for v in r_bar:
        # min and max propagate NaN, and need no temporary array
        if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError("gamma values must be finite")
    state = CertifyState(r_bar=r_bar)

    # the slot of local pair (a, b), a < b, is base[a] + b
    bases = []
    row_starts = []
    member_lists = []
    local = [0] * p.n  # global index -> position in its cluster
    for c in (0, 1):
        members = gamma.clusters[c]
        sz = members.size
        a_idx = np.arange(sz)
        row_starts.append(a_idx * sz - a_idx * (a_idx + 1) // 2)  # the slot of (a, a + 1)
        bases.append((row_starts[c] - a_idx - 1).tolist())
        member_lists.append(members.tolist())
        for a, g in enumerate(member_lists[c]):
            local[g] = a
    # the slots of the negative pairs not yet scanned, four bytes each where
    # they fit; only positive residuals donate, so the residual of a pending
    # pair is still its gamma value
    pending = [
        np.flatnonzero(v < 0.0).astype(np.int32 if v.size <= 2**31 else np.int64) for v in r_bar
    ]

    def worklist():
        while pending[0].size or pending[1].size:
            chunk = _take_most_negative(r_bar, pending, _WORK_CHUNK)
            keys = []
            for c in (0, 1):
                slots = chunk[c]
                a = np.searchsorted(row_starts[c], slots, side="right") - 1
                b = slots - row_starts[c][a] + a + 1
                members = gamma.clusters[c]
                keys.append((r_bar[c][slots], members[a], members[b], np.full(slots.size, c)))
            values, gis, gjs, cs = (np.concatenate(column) for column in zip(*keys))
            # (value, gi, gj) is unique, so this is the order of a sort of the
            # tuples, and every value of a later chunk is larger
            order = np.lexsort((gjs, gis, values))
            yield from zip(gis[order].tolist(), gjs[order].tolist(), cs[order].tolist())

    views = [memoryview(v) for v in r_bar]
    for gi, gj, c in worklist():
        members = member_lists[c]
        base = bases[c]
        rc = views[c]
        a, b = local[gi], local[gj]
        base_a, base_b = base[a], base[b]
        idx_ab = base_a + b
        r_ab = rc[idx_ab]
        for k in range(len(members)):
            if k == a or k == b:
                continue
            idx_ak = base_a + k if k > a else base[k] + a
            r_ak = rc[idx_ak]
            if r_ak <= 0.0:
                continue
            idx_bk = base_b + k if k > b else base[k] + b
            r_bk = rc[idx_bk]
            if r_bk <= 0.0:
                continue
            omega = min(-r_ab, r_ak, r_bk)
            if omega <= 0.0:
                continue
            rc[idx_ak] = r_ak - omega
            rc[idx_bk] = r_bk - omega
            r_ab += omega
            rc[idx_ab] = r_ab
            key = (members[k], gi, gj)
            state.lam[key] = state.lam.get(key, 0.0) + omega
            if r_ab >= 0.0:
                break
        if r_ab < 0.0:
            state.failed_pair = (gi, gj)
            state.deficit = r_ab
            break
    else:
        state.success = True
    return state


def _take_most_negative(
    r_bar: tuple[np.ndarray, np.ndarray], pending: list[np.ndarray], count: int
) -> list[np.ndarray]:
    """Per cluster, the slots of the ``count`` most negative residuals in
    ``pending`` and of every residual tied with the last of them, removed
    from ``pending``, which holds per cluster the slots of negative
    residuals in any order.

    The values are gathered one cluster at a time: the count-th smallest of
    each cluster bounds the count-th smallest of both, so the candidates
    below that bound, at most 2 * count plus ties, decide the exact limit."""
    if pending[0].size + pending[1].size <= count:
        taken = pending[:]
        pending[:] = [s[:0] for s in pending]
        return taken
    bound = np.inf
    for c in (0, 1):
        if pending[c].size > count:
            values = r_bar[c][pending[c]]
            values.partition(count - 1)
            bound = min(bound, values[count - 1])
            del values  # before the other cluster's are gathered
    slots, near_values = [], []
    for c in (0, 1):
        values = r_bar[c][pending[c]]
        near = values <= bound
        slots.append(pending[c][near])
        near_values.append(values[near])
        pending[c] = pending[c][~near]
        del values
    limit = np.partition(np.concatenate(near_values), count - 1)[count - 1]
    taken = []
    for c in (0, 1):
        keep = near_values[c] <= limit
        taken.append(slots[c][keep])
        pending[c] = np.concatenate([pending[c], slots[c][~keep]])
    return taken

