"""Core data types and operations: points, squared distances, partitions,
partition matrices, clustering objectives, and a small-instance brute-force
oracle.

Symmetric decision matrices are plain float64 ``(n, n)`` numpy arrays.  The
LP modules store them packed as the upper triangle (diagonal included) in
row-major order over ``i <= j``; :func:`pack_matrix` / :func:`unpack_matrix`
convert between the two layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PointSet",
    "Partition",
    "packed_len",
    "packed_index",
    "packed_diag_indices",
    "pack_matrix",
    "unpack_matrix",
    "squared_distances",
    "partition_matrix",
    "lp_objective",
    "kmeans_cost",
    "rounding_gamma",
    "is_partition_matrix",
    "kmeans_bruteforce",
    "canonical_relabel",
    "same_partition",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointSet:
    """n points in R^m, stored as an (n, m) float64 array with fixed row order."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ValueError(f"coords must be a nonempty 2-d array, got shape {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", _readonly(coords))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def m(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class Partition:
    """Assignment of n points to K nonempty clusters, labels in 0..K-1."""

    k: int
    assign: np.ndarray
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        assign = np.asarray(self.assign, dtype=np.int64)
        if assign.ndim != 1 or assign.size < 1:
            raise ValueError("assign must be a nonempty 1-d integer array")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if assign.min() < 0 or assign.max() >= self.k:
            raise ValueError("cluster ids must lie in [0, k)")
        sizes = np.bincount(assign, minlength=self.k)
        if (sizes == 0).any():
            raise ValueError("every cluster must be nonempty")
        object.__setattr__(self, "assign", _readonly(assign))
        object.__setattr__(self, "sizes", _readonly(sizes))

    @property
    def n(self) -> int:
        return self.assign.size

    def members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.assign == label)


def packed_len(n: int) -> int:
    return n * (n + 1) // 2


def packed_index(i, j, n: int):
    """Packed position of entry (i, j), i <= j, in the upper-triangle layout."""
    i = np.asarray(i)
    j = np.asarray(j)
    return i * n - (i * (i - 1)) // 2 + (j - i)


def packed_diag_indices(n: int) -> np.ndarray:
    i = np.arange(n)
    return packed_index(i, i, n)


def pack_matrix(x: np.ndarray) -> np.ndarray:
    """Upper triangle (with diagonal) of a symmetric matrix as a flat vector."""
    n = x.shape[0]
    iu = np.triu_indices(n)
    return np.asarray(x, dtype=np.float64)[iu]


def unpack_matrix(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_matrix`; returns the full symmetric matrix."""
    if v.size != packed_len(n):
        raise ValueError(f"packed vector has size {v.size}, expected {packed_len(n)}")
    x = np.zeros((n, n))
    x[np.triu_indices(n)] = v
    return x + np.triu(x, 1).T


def squared_distances(points: PointSet) -> np.ndarray:
    """Symmetric matrix of pairwise squared Euclidean distances.

    Row-wise evaluation keeps the result bitwise deterministic for a fixed
    point ordering.  Row i computes the columns j >= i only and mirrors them
    into column i: (x_i - x_j)^2 equals (x_j - x_i)^2 term by term, summed in
    the same order, so the mirror is the entry a full row would compute.
    """
    coords = points.coords
    n = points.n
    d = np.empty((n, n))
    for i in range(n):
        diff = coords[i:] - coords[i]
        row = np.einsum("ij,ij->i", diff, diff)
        row[0] = 0.0
        d[i, i:] = row
        d[i:, i] = row
    return d


def partition_matrix(p: Partition) -> np.ndarray:
    """The block matrix with value 1/|cluster| on each within-cluster pair."""
    n = p.n
    x = np.zeros((n, n))
    for label in range(p.k):
        idx = p.members(label)
        x[np.ix_(idx, idx)] = 1.0 / idx.size
    return x


def lp_objective(x: np.ndarray, d: np.ndarray) -> float:
    """Full double sum of d_ij * X_ij over all ordered pairs (i, j)."""
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if x.shape != d.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"shape mismatch: X {x.shape} vs d {d.shape}")
    return float(np.sum(d * x))


def kmeans_cost(points: PointSet, p: Partition) -> float:
    """Clustering cost of a partition, on the scale of :func:`lp_objective`.

    Equals sum over clusters of (1/|cluster|) * sum of all within-cluster
    pairwise squared distances, i.e. twice the within-cluster sum of squared
    deviations from the centroids; it coincides with
    ``lp_objective(partition_matrix(p), squared_distances(points))``.
    """
    if p.n != points.n:
        raise ValueError(f"partition covers {p.n} points, point set has {points.n}")
    cost = 0.0
    for label in range(p.k):
        idx = p.members(label)
        pts = points.coords[idx]
        centroid = pts.mean(axis=0)
        cost += 2.0 * float(((pts - centroid) ** 2).sum())
    return cost


def rounding_gamma(p: int) -> float:
    """Higham's gamma_p = p u / (1 - p u), u = 2^-53: the relative error bound
    of a p-term floating-point sum or dot product."""
    pu = p * 2.0**-53
    return pu / (1.0 - pu)


def is_partition_matrix(x: np.ndarray, k: int, tol: float = 1e-6) -> bool:
    """True iff X has trace k, unit row sums, and is a projection (X X = X),
    all within tol."""
    x = np.asarray(x, dtype=np.float64)
    if abs(np.trace(x) - k) > tol:
        return False
    if np.abs(x.sum(axis=1) - 1.0).max() > tol:
        return False
    return float(np.abs(x @ x - x).max()) <= tol


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

_TWO_CLUSTER_MAX_N = 26
_GENERAL_MAX_LEAVES = 2**24


def _bruteforce_two_clusters(d: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact K=2 optimum by enumerating the 2^(n-1) splits with point 0 fixed
    in cluster 0, in vectorized blocks."""
    n = d.shape[0]
    u = d.sum(axis=1)
    total = float(u.sum())

    free = n - 1
    lo_bits = min(free, 16)
    hi_bits = free - lo_bits
    lo_idx = np.arange(n - lo_bits, n)          # innermost points, vectorized
    hi_idx = np.arange(1, 1 + hi_bits)          # outer loop points

    # all bit patterns of the low group
    codes = np.arange(2**lo_bits, dtype=np.uint32)
    z_lo = ((codes[:, None] >> np.arange(lo_bits)[None, :]) & 1).astype(np.float64)
    d_lo = d[np.ix_(lo_idx, lo_idx)]
    q_lo = np.einsum("ij,ij->i", z_lo @ d_lo, z_lo)
    t_lo = z_lo @ u[lo_idx]
    pop_lo = z_lo.sum(axis=1)

    best_cost = np.inf
    best_hi = 0
    best_lo = 0
    for h in range(2**hi_bits):
        members = [0] + [int(hi_idx[b]) for b in range(hi_bits) if (h >> b) & 1]
        mh = np.array(members)
        q_h = float(d[np.ix_(mh, mh)].sum())
        t_h = float(u[mh].sum())
        w = d[np.ix_(mh, lo_idx)].sum(axis=0)
        s1 = q_h + q_lo + 2.0 * (z_lo @ w)
        t = t_h + t_lo
        n1 = len(members) + pop_lo
        n2 = n - n1
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = s1 / n1 + (total - 2.0 * t + s1) / n2
        cost[n2 < 1] = np.inf
        j = int(np.argmin(cost))
        if cost[j] < best_cost:
            best_cost = float(cost[j])
            best_hi, best_lo = h, j

    assign = np.ones(n, dtype=np.int64)
    assign[0] = 0
    for b in range(hi_bits):
        if (best_hi >> b) & 1:
            assign[hi_idx[b]] = 0
    for b in range(lo_bits):
        if (best_lo >> b) & 1:
            assign[lo_idx[b]] = 0
    return assign, best_cost


def _bruteforce_general(d: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Enumerate canonical (first-occurrence relabeled) surjective assignments."""
    n = d.shape[0]
    assign = np.zeros(n, dtype=np.int64)
    within = np.zeros(k)      # running double sums of within-cluster distances
    sizes = np.zeros(k, dtype=np.int64)
    best = {"cost": np.inf, "assign": None}

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                cost = float(np.sum(within[:k] / sizes[:k]))
                if cost < best["cost"]:
                    best["cost"] = cost
                    best["assign"] = assign.copy()
            return
        if used + (n - i) < k:
            return
        top = min(used + 1, k)
        for label in range(top):
            mask = assign[:i] == label
            delta = 2.0 * float(d[i, :i][mask].sum())
            assign[i] = label
            within[label] += delta
            sizes[label] += 1
            rec(i + 1, max(used, label + 1))
            within[label] -= delta
            sizes[label] -= 1
        assign[i] = 0

    rec(0, 0)
    return best["assign"], best["cost"]


def kmeans_bruteforce(points: PointSet, k: int) -> tuple[Partition, float]:
    """Globally optimal partition and cost by exhaustive enumeration.

    Guarded to instances where the enumeration is feasible: n <= 26 for
    K = 2 (vectorized 2^(n-1) scan), and roughly K^(n-1) <= 2^24 otherwise.
    """
    n = points.n
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= K <= n, got K={k}, n={n}")
    if k == n:
        return Partition(k, np.arange(n)), 0.0
    d = squared_distances(points)
    if k == 1:
        p = Partition(1, np.zeros(n, dtype=np.int64))
        return p, float(d.sum() / n)
    if k == 2:
        if n > _TWO_CLUSTER_MAX_N:
            raise ValueError(f"brute force for K=2 is limited to n <= {_TWO_CLUSTER_MAX_N}")
        assign, _ = _bruteforce_two_clusters(d)
    else:
        if k ** (n - 1) > _GENERAL_MAX_LEAVES:
            raise ValueError(f"instance too large for brute force: K={k}, n={n}")
        assign, _ = _bruteforce_general(d, k)
    # the enumerations' running sums drift; the cost is the partition's own
    p = Partition(k, assign)
    return p, kmeans_cost(points, p)


def canonical_relabel(assign: np.ndarray) -> np.ndarray:
    """Relabel clusters by order of first occurrence (0, 1, 2, ...)."""
    assign = np.asarray(assign, dtype=np.int64)
    mapping: dict[int, int] = {}
    out = np.empty_like(assign)
    for i, a in enumerate(assign):
        if int(a) not in mapping:
            mapping[int(a)] = len(mapping)
        out[i] = mapping[int(a)]
    return out


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two assignment vectors induce the same partition up to relabeling."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(canonical_relabel(a), canonical_relabel(b)))
