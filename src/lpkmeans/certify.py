"""Two-cluster optimality certification: the pairwise proximity condition and
the greedy multiplier-repair construction of a dual certificate.

Pair quantities are stored per cluster as flat arrays over the local pairs
(a, b), a < b, in row-major upper-triangle order; ``pair_pos`` matrices map a
local index pair to its slot.
"""

from __future__ import annotations

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

    def pair_index(self, c: int, a: int, b: int) -> int:
        size = self.clusters[c].size
        if a > b:
            a, b = b, a
        return a * size - a * (a + 1) // 2 + (b - a - 1)

    def get(self, c: int, a: int, b: int) -> float:
        return float(self.values[c][self.pair_index(c, a, b)])


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

    gamma: PairValues
    r_bar: tuple[np.ndarray, np.ndarray]
    lam: dict[tuple[int, int, int], float] = field(default_factory=dict)
    success: bool = False
    failed_pair: tuple[int, int] | None = None
    deficit: float = 0.0

    def recomputed_r_bar(self) -> tuple[np.ndarray, np.ndarray]:
        """Residuals rebuilt from gamma and the multipliers alone."""
        out = tuple(v.copy() for v in self.gamma.values)
        pos = {int(g): (c, a) for c in (0, 1) for a, g in enumerate(self.gamma.clusters[c])}
        for (k, i, j), v in self.lam.items():
            c, ka = pos[k]
            _, ia = pos[i]
            _, ja = pos[j]
            out[c][self.gamma.pair_index(c, ia, ja)] += v
            out[c][self.gamma.pair_index(c, ia, ka)] -= v
            out[c][self.gamma.pair_index(c, ja, ka)] -= v
        return out


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
    g1, g2 = _ordered_clusters(p)
    n = p.n
    r1 = 2.0 * g1.size / n
    r2 = 2.0 * g2.size / n
    d_in = np.empty(n)
    d_out = np.empty(n)
    for own, other in ((g1, g2), (g2, g1)):
        d_in[own] = d[np.ix_(own, own)].mean(axis=1)
        d_out[own] = d[np.ix_(own, other)].mean(axis=1)
    din1 = d_in[g1]
    din2 = d_in[g2]
    eta = (r2 / 2.0) * (
        (1.0 - r1 / r2) * din1.max()
        + (1.0 - r2 / r1) * din2.min()
        + (r1 / r2) * din1.mean()
        + (r2 / r1) * din2.mean()
    )
    return TwoClusterStats(r1=r1, r2=r2, d_in=d_in, d_out=d_out, eta=eta, clusters=(g1, g2))


def _pair_slacks(d: np.ndarray, stats: TwoClusterStats) -> tuple[np.ndarray, np.ndarray]:
    """Slack of the pairwise condition for every within-cluster pair:
    mean_k min(r d_ik + d_in_j, r d_jk + d_in_i) - d_ij - threshold,
    averaging over the opposite cluster with its size ratio r.

    With u = r d_cross - d_in[:, None], the minimum is
    d_in_i + d_in_j + min(u_ik, u_jk), so each row a is one elementwise
    minimum into a reused buffer and one mean; ``d`` is never written."""
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
        din = stats.d_in[own]
        u = d[np.ix_(own, other)]  # fancy indexing copies, so u may be overwritten
        u *= ratio
        u -= din[:, None]
        buf = np.empty((sz - 1, other.size))
        slack = np.empty(sz * (sz - 1) // 2)
        pos = 0
        for a in range(sz - 1):
            count = sz - a - 1
            row = slack[pos : pos + count]
            np.minimum(u[a], u[a + 1 :], out=buf[:count]).mean(axis=1, out=row)
            row += din[a]
            row += din[a + 1 :]
            row -= d[own[a], own[a + 1 :]]
            row -= threshold
            pos += count
        out.append(slack)
    return out[0], out[1]


def proximity_check(d: np.ndarray, p: Partition) -> ProximityReport:
    """Evaluate the pairwise sufficient condition; a strictly positive margin
    additionally certifies uniqueness of the optimal solution."""
    stats = two_cluster_stats(d, p)
    s1, s2 = _pair_slacks(d, stats)
    margin_small = float(s1.min()) if s1.size else np.inf
    margin_large = float(s2.min()) if s2.size else np.inf
    worst = min(margin_small, margin_large)
    if worst < 0.0:
        verdict = "fails"
    elif worst > _STRICT_MARGIN * float(stats.d_out.max()):
        verdict = "holds_strict"
    else:
        verdict = "holds"
    return ProximityReport(verdict, margin_small, margin_large, stats)


def gamma_values(d: np.ndarray, p: Partition) -> PairValues:
    """Per-pair slack values, scaled by two, feeding the certificate repair."""
    stats = two_cluster_stats(d, p)
    s1, s2 = _pair_slacks(d, stats)
    return PairValues(clusters=stats.clusters, values=(2.0 * s1, 2.0 * s2))


def certify(gamma: PairValues, p: Partition, audit: bool = False) -> CertifyState:
    """Greedy dual-certificate construction.

    Negative-residual pairs are repaired most-negative first by transferring
    surplus from pairs (i, k), (j, k) sharing a third in-cluster point k,
    scanned in ascending index order; a pair whose scan ends still negative
    makes the whole construction fail.  Runs in Theta(n^3) time worst case.
    With ``audit`` every update is re-derived from the multipliers and
    checked to 1e-12.
    """
    g1, g2 = _ordered_clusters(p)
    if tuple(map(tuple, gamma.clusters)) != (tuple(g1), tuple(g2)):
        raise ValueError("gamma values do not match the partition's clusters")

    r_bar = tuple(v.copy() for v in gamma.values)
    state = CertifyState(gamma=gamma, r_bar=r_bar)

    worklist: list[tuple[float, int, int, int]] = []
    locals_by_cluster = []
    for c in (0, 1):
        members = gamma.clusters[c]
        locals_by_cluster.append({int(g): a for a, g in enumerate(members)})
        sz = members.size
        au, bu = np.triu_indices(sz, 1)
        for t in np.flatnonzero(r_bar[c] < 0.0):
            a, b = int(au[t]), int(bu[t])
            worklist.append((float(r_bar[c][t]), int(members[a]), int(members[b]), c))
    worklist.sort(key=lambda rec: (rec[0], rec[1], rec[2]))

    for _, gi, gj, c in worklist:
        members = gamma.clusters[c]
        local = locals_by_cluster[c]
        a, b = local[gi], local[gj]
        idx_ab = gamma.pair_index(c, a, b)
        rc = r_bar[c]
        for k in range(members.size):
            if k == a or k == b:
                continue
            idx_ak = gamma.pair_index(c, a, k)
            idx_bk = gamma.pair_index(c, b, k)
            omega = min(-rc[idx_ab], rc[idx_ak], rc[idx_bk])
            if omega <= 0.0:
                continue
            rc[idx_ak] -= omega
            rc[idx_bk] -= omega
            rc[idx_ab] += omega
            key = (int(members[k]), gi, gj)
            state.lam[key] = state.lam.get(key, 0.0) + omega
            if audit:
                ref = state.recomputed_r_bar()
                if max(
                    float(np.abs(ref[0] - r_bar[0]).max()) if ref[0].size else 0.0,
                    float(np.abs(ref[1] - r_bar[1]).max()) if ref[1].size else 0.0,
                ) > 1e-12:
                    raise AssertionError("residual bookkeeping drifted")
            if rc[idx_ab] >= 0.0:
                break
        if rc[idx_ab] < 0.0:
            state.success = False
            state.failed_pair = (gi, gj)
            state.deficit = float(rc[idx_ab])
            return state

    state.success = True
    return state
