import numpy as np
import pytest

from lpkmeans.core import Partition, PointSet, squared_distances
from lpkmeans.generators import GenSpec, generate
from lpkmeans.lp_model import CutPool, _pad, _row_keys


@pytest.fixture(scope="session")
def five_point():
    points, planted = generate(GenSpec("five_point"))
    return points, planted, squared_distances(points)


def random_partition(rng: np.random.Generator, n: int, k: int) -> Partition:
    """Uniform random surjective assignment of n points to k clusters."""
    while True:
        assign = rng.integers(0, k, size=n)
        if np.unique(assign).size == k:
            return Partition(k, assign)


def random_points(rng: np.random.Generator, n: int, m: int, scale: float = 1.0) -> PointSet:
    return PointSet(rng.normal(scale=scale, size=(n, m)))


def raw_cut_pool(cuts) -> CutPool:
    """Rows of (i, S) cuts given with S in any order, repeats kept."""
    cuts = list(cuts)
    if not cuts:
        return CutPool()
    s = np.full((len(cuts), max(len(members) for _, members in cuts)), -1, dtype=np.int64)
    for r, (_, members) in enumerate(cuts):
        s[r, : len(members)] = sorted(members)
    return CutPool([i for i, _ in cuts], s)


def cut_pool(cuts) -> CutPool:
    """Pool of (i, S) cuts given with S in any order, repeats dropped after
    their first occurrence."""
    return reference_extend(CutPool(), raw_cut_pool(cuts))[0]


def _stacked_keys(pool: CutPool, other: CutPool) -> np.ndarray:
    width = max(pool.width, other.width)
    return _row_keys(
        np.concatenate([pool.i, other.i]),
        np.concatenate([_pad(pool.s, width), _pad(other.s, width)]),
    )


def reference_extend(
    pool: CutPool, other: CutPool, limit: int | None = None
) -> tuple[CutPool, int]:
    """``pool`` with the cuts of ``other`` that it lacks appended, in their
    order, stopping after ``limit`` of them, and how many were added: the
    pool's former ``extend``, a reference for ``CutPool.merge``."""
    if len(other) == 0:
        return pool, 0
    _, first = np.unique(_stacked_keys(pool, other), return_index=True)
    fresh = np.sort(first[first >= len(pool)]) - len(pool)
    if limit is not None:
        fresh = fresh[: max(limit, 0)]
    width = max(pool.width, other.width)
    return CutPool(
        np.concatenate([pool.i, other.i[fresh]]),
        np.concatenate([_pad(pool.s, width), _pad(other.s[fresh], width)]),
    ), fresh.size


def reference_lookup(pool: CutPool, other: CutPool) -> np.ndarray:
    """Row of each cut of ``other`` in ``pool``, -1 where it is absent: the
    pool's former ``lookup``, a reference for ``CutPool.merge``."""
    _, first, inverse = np.unique(
        _stacked_keys(pool, other), return_index=True, return_inverse=True
    )
    rows = first[inverse[len(pool):]]
    return np.where(rows < len(pool), rows, -1)


def violations(pool: CutPool, x: np.ndarray) -> np.ndarray:
    """w_i(S) = sum_{j in S} X_ij - X_ii - sum_{j<k in S} X_jk of every pool
    row at X; > 0 means violated.  The sums run as in the scalar
    ``reference_violation`` of tests/test_cut_pool.py, so the values agree
    bit for bit on rows as wide as the pool and on |S| <= 3.  The pool's
    former ``violations``, the evaluator the separation and LP tests check
    against."""
    valid = pool.s >= 0
    s = np.where(valid, pool.s, 0)
    at_i = np.where(valid, x[pool.i[:, None], s], 0.0)
    sub = np.where(valid[:, :, None] & valid[:, None, :], x[s[:, :, None], s[:, None, :]], 0.0)
    pairs = np.triu(sub, 1).reshape(len(pool), pool.width**2).sum(axis=1)
    return at_i.sum(axis=1) - x[pool.i, pool.i] - pairs


def cut_rows(pool: CutPool) -> list[tuple[int, tuple[int, ...]]]:
    """(i, S) of every pool row in order, S without its -1 padding."""
    return [(i, tuple(v for v in row if v >= 0)) for i, row in zip(pool.i.tolist(), pool.s.tolist())]
