"""Primal-side machinery: D^2-weighted seeding, Lloyd's algorithm, and
spectral rounding of fractional LP solutions into partitions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from lpkmeans.core import Partition, PointSet, is_partition_matrix, kmeans_cost

__all__ = ["LloydConfig", "kmeanspp_lloyd", "round_lp_solution", "upper_bound_update"]


@dataclass(frozen=True)
class LloydConfig:
    max_iters: int = 100
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")


def _distances_to_centers(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d = (
        (coords**2).sum(axis=1)[:, None]
        + (centers**2).sum(axis=1)[None, :]
        - 2.0 * coords @ centers.T
    )
    return np.maximum(d, 0.0)


def _seed_centers(coords: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: next center drawn with probability proportional to
    the squared distance to the nearest chosen center."""
    n = coords.shape[0]
    centers = np.empty((k, coords.shape[1]))
    first = int(rng.integers(n))
    centers[0] = coords[first]
    closest = ((coords - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[i] = coords[idx]
        closest = np.minimum(closest, ((coords - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(coords: np.ndarray, centers: np.ndarray, max_iters: int) -> tuple[np.ndarray, float]:
    """Lloyd iterations from given centers until the assignment stabilizes.

    Returns (assignment, within-cluster sum of squares).  The per-iteration
    cost is checked to be non-increasing.
    """
    n, _ = coords.shape
    k = centers.shape[0]
    centers = centers.copy()
    assign = np.full(n, -1, dtype=np.int64)
    prev_cost = np.inf
    for _ in range(max_iters):
        dist = _distances_to_centers(coords, centers)
        new_assign = dist.argmin(axis=1)

        # keep every cluster nonempty: reseed at the point farthest from its
        # current center, one cluster at a time
        present = np.bincount(new_assign, minlength=k)
        while (present == 0).any():
            empty = int(np.flatnonzero(present == 0)[0])
            own = dist[np.arange(n), new_assign]
            own[present[new_assign] <= 1] = -np.inf  # do not empty another cluster
            far = int(own.argmax())
            present[new_assign[far]] -= 1
            new_assign[far] = empty
            present[empty] += 1

        cost = 0.0
        for label in range(k):
            members = coords[new_assign == label]
            centers[label] = members.mean(axis=0)
            cost += float(((members - centers[label]) ** 2).sum())
        if cost > prev_cost + 1e-9 * (1.0 + abs(prev_cost)):
            raise AssertionError(f"Lloyd cost increased: {prev_cost} -> {cost}")
        if (new_assign == assign).all():
            assign = new_assign
            prev_cost = cost
            break
        assign = new_assign
        prev_cost = cost
    return assign, prev_cost


def kmeanspp_lloyd(points: PointSet, k: int, cfg: LloydConfig) -> tuple[Partition, float]:
    """Best of ``cfg.restarts`` seeded Lloyd runs; cost on the kmeans_cost scale."""
    n = points.n
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= K <= n, got K={k}, n={n}")
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    best_assign = None
    best_wcss = np.inf
    for _ in range(cfg.restarts):
        centers = _seed_centers(points.coords, k, rng)
        assign, wcss = _lloyd(points.coords, centers, cfg.max_iters)
        if wcss < best_wcss:
            best_wcss = wcss
            best_assign = assign
    p = Partition(k, best_assign)
    return p, kmeans_cost(points, p)


def round_lp_solution(
    x_lb: np.ndarray,
    points: PointSet,
    k: int,
    cfg: LloydConfig,
) -> tuple[Partition, float]:
    """Round a fractional solution: leading eigenvectors, each rescaled to
    sum one, give initial centers, then Lloyd refines them.

    An (exactly) integral input short-circuits to the partition it encodes:
    with a degenerate leading eigenspace the eigenbasis is an arbitrary
    rotation of the cluster indicators, so reading the blocks off directly is
    the only reliable way to keep rounding idempotent there.
    """
    x = 0.5 * (x_lb + x_lb.T)
    n = points.n
    if x.shape != (n, n):
        raise ValueError("matrix size does not match point set")

    if is_partition_matrix(x, k, tol=1e-9):
        p = extract_support_partition(x)
        if p is not None and p.k == k:
            return p, kmeans_cost(points, p)

    try:
        eigvals, eigvecs = np.linalg.eigh(x)
    except np.linalg.LinAlgError:
        warnings.warn("eigendecomposition failed; falling back to seeded Lloyd")
        return kmeanspp_lloyd(points, k, cfg)

    top = eigvecs[:, ::-1][:, :k]  # descending eigenvalue order
    centers = np.empty((k, points.m))
    for i in range(k):
        v = top[:, i]
        total = v.sum()
        if abs(total) > 1e-12 * np.sqrt(n):
            v = v / total
        centers[i] = v @ points.coords
    assign, _ = _lloyd(points.coords, centers, cfg.max_iters)
    p = Partition(k, assign)
    return p, kmeans_cost(points, p)


def extract_support_partition(x: np.ndarray) -> Partition | None:
    """Connected components of {(i, j): X_ij > 0.5 max(X_ii, X_jj)}."""
    n = x.shape[0]
    diag = np.diag(x)
    adj = x > 0.5 * np.maximum(diag[:, None], diag[None, :])
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(adj[v]):
                if labels[w] == -1:
                    labels[w] = current
                    stack.append(int(w))
        current += 1
    try:
        return Partition(current, labels)
    except ValueError:
        return None


def upper_bound_update(
    current: tuple[Partition, float], candidate: tuple[Partition, float]
) -> tuple[Partition, float]:
    """Keep the lower-cost incumbent; ties keep the current one."""
    return candidate if candidate[1] < current[1] else current
