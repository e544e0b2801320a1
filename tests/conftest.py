import numpy as np
import pytest

from lpkmeans.core import Partition, PointSet, squared_distances
from lpkmeans.generators import GenSpec, generate
from lpkmeans.lp_model import CutPool


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


def cut_pool(cuts) -> CutPool:
    """Pool of (i, S) cuts given with S in any order, repeats dropped after
    their first occurrence."""
    cuts = list(cuts)
    pool = CutPool()
    if cuts:
        s = np.full((len(cuts), max(len(members) for _, members in cuts)), -1, dtype=np.int64)
        for r, (_, members) in enumerate(cuts):
            s[r, : len(members)] = sorted(members)
        pool.extend(CutPool([i for i, _ in cuts], s))
    return pool


def cut_rows(pool: CutPool) -> list[tuple[int, tuple[int, ...]]]:
    """(i, S) of every pool row in order, S without its -1 padding."""
    return [(i, tuple(v for v in row if v >= 0)) for i, row in zip(pool.i.tolist(), pool.s.tolist())]
