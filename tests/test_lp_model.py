import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkmeans.core import (
    Partition,
    pack_matrix,
    packed_len,
    partition_matrix,
    squared_distances,
)
from lpkmeans.generators import reference_nontight_matrix
from lpkmeans.lp_model import CutPool, _sample_without_replacement, active_cuts, all_cuts, build
from lpkmeans.separation import separate_exhaustive, separate_greedy

from conftest import (
    cut_pool,
    cut_rows,
    random_partition,
    random_points,
    reference_lookup,
    violations,
)


def test_facet_inequality_canonicalization():
    # CutPool wraps rows without checking them, so every producer of cuts
    # must emit canonical ones: S of two or more distinct indices without i,
    # ascending, -1 padding only at the end, and no row twice
    rng = np.random.default_rng(25)
    a = rng.random((9, 9))
    x = 0.5 * (a + a.T)
    pools = [
        all_cuts(6, 4),
        active_cuts(random_partition(rng, 9, 3)),
        separate_greedy(x, 4).cuts,
        separate_exhaustive(x, 3).cuts,
    ]
    for pool in pools:
        assert len(pool) > 0
        for i, s in cut_rows(pool):
            assert len(s) >= 2 and i not in s
            assert list(s) == sorted(set(s))
        assert (np.diff((pool.s < 0).astype(int), axis=1) >= 0).all()  # no member after padding
        assert reference_lookup(pool, pool).tolist() == list(range(len(pool)))


def test_cut_pool_deduplicates():
    pool = CutPool()
    for cut, added in ((CutPool([0], [[1, 2]]), 1), (CutPool([0], [[1, 2]]), 0),
                       (CutPool([1], [[0, 2]]), 1)):
        merged, rows = pool.merge(np.ones(len(pool), dtype=bool), cut)
        assert len(merged) - len(pool) == added
        assert rows.tolist() == list(range(len(pool))) + [-1] * added
        pool = merged
    assert len(pool) == 2
    # a dropped row, separated again, is appended and keeps its old row
    merged, rows = pool.merge(np.array([False, True]), CutPool([0, 2], [[1, 2], [0, 1]]))
    assert cut_rows(merged) == [(1, (0, 2)), (0, (1, 2)), (2, (0, 1))]
    assert rows.tolist() == [1, 0, -1]


def test_build_counts(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool())
    assert lp.n_vars == 15
    assert lp.a_eq.shape == (6, 15)
    assert lp.q.shape == (0, 15)
    assert np.all(lp.lb == 0.0) and np.all(lp.ub == 1.0)
    assert lp.b_eq[0] == 2.0 and np.all(lp.b_eq[1:] == 1.0)


def test_build_rejects_bad_k(five_point):
    _, _, d = five_point
    for k in (1, 6):
        with pytest.raises(ValueError):
            build(d, k, CutPool())


def test_reference_matrix_feasible_in_built_lp(five_point):
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    xp = pack_matrix(reference_nontight_matrix(1))
    assert (lp.q @ xp).max() <= 1e-12


def test_partition_matrices_feasible_any_pool():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(2, 4))
        if k > n:
            continue
        pts = random_points(rng, n, 2)
        d = squared_distances(pts)
        pool = all_cuts(n, min(3, k))
        lp = build(d, k, pool)
        xp = pack_matrix(partition_matrix(random_partition(rng, n, k)))
        assert np.abs(lp.a_eq @ xp - lp.b_eq).max() < 1e-12
        if len(pool):
            assert (lp.q @ xp).max() <= 1e-12


def test_violation_arithmetic():
    x = np.full((3, 3), 0.0)
    np.fill_diagonal(x, 0.5)
    x[0, 1] = x[1, 0] = 0.6
    x[0, 2] = x[2, 0] = 0.6
    x[1, 2] = x[2, 1] = 0.1
    assert violations(CutPool([0], [[1, 2]]), x)[0] == pytest.approx(0.6, abs=1e-15)


def test_violation_nonpositive_on_partition_matrices():
    rng = np.random.default_rng(22)
    trials = 0
    while trials < 10_000:
        n = int(rng.integers(3, 31))
        k = int(rng.integers(1, min(6, n) + 1))
        x = partition_matrix(random_partition(rng, n, k))
        for _ in range(10):
            i = int(rng.integers(n))
            size = int(rng.integers(2, min(4, n - 1) + 1))
            s = rng.choice([v for v in range(n) if v != i], size=size, replace=False)
            assert violations(CutPool([i], [np.sort(s)]), x)[0] <= 1e-12
            trials += 1


def test_violation_nonpositive_at_reference_matrix(five_point):
    xt = reference_nontight_matrix(1)
    assert violations(all_cuts(5, 2), xt).max() <= 1e-12


def test_build_incremental_consistency(five_point):
    _, _, d = five_point
    base = [(0, (1, 2)), (1, (2, 3))]
    extra = (2, (3, 4))
    pool_incr, pool_full = cut_pool(base + [extra]), cut_pool(base)
    lp_incr = build(d, 2, pool_incr)
    lp_full = build(d, 2, pool_full)
    # appending the cut reproduces the row-for-row identical structure
    assert lp_incr.q.shape[0] == lp_full.q.shape[0] + 1
    a = lp_incr.q[:2].toarray()
    b = lp_full.q.toarray()
    assert np.array_equal(a, b)
    assert pool_incr[:2] == pool_full


def test_objective_consistency_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        pts = random_points(rng, n, 3)
        d = squared_distances(pts)
        lp = build(d, 2, CutPool())
        a = rng.normal(size=(n, n))
        x = a + a.T
        from lpkmeans.core import lp_objective

        direct = lp_objective(x, d)
        packed = float(lp.c @ pack_matrix(x))
        assert abs(direct - packed) <= 1e-12 * (1.0 + abs(direct))


# ---------------------------------------------------------------------------
# active_cuts
# ---------------------------------------------------------------------------


def reference_active_cuts(
    x: np.ndarray, eps_act: float = 1e-9, cap: int | None = None, seed: int = 0
) -> CutPool:
    """Pair cuts (|S| = 2) whose slack at X is within eps_act of zero.

    When more than ``cap`` cuts are tight, a uniform sample without
    replacement is drawn under ``seed``.  The cuts are scanned in two passes
    so the full tight set never needs to be materialized.
    """
    n = x.shape[0]
    ju, ku = np.triu_indices(n, 1)

    def tight_flat(i: int) -> np.ndarray:
        w = x[i, ju] + x[i, ku] - x[i, i] - x[ju, ku]
        ok = (np.abs(w) <= eps_act) & (ju != i) & (ku != i)
        return np.flatnonzero(ok)

    counts = np.empty(n, dtype=np.int64)
    for i in range(n):
        counts[i] = tight_flat(i).size
    total = int(counts.sum())

    selected: np.ndarray | None = None
    if cap is not None and total > cap:
        rng = np.random.Generator(np.random.Philox(seed))
        selected = _sample_without_replacement(rng, total, cap)

    offsets = np.concatenate([[0], np.cumsum(counts)])
    taken = []
    for i in range(n):
        if counts[i] == 0:
            continue
        flat = tight_flat(i)
        if selected is None:
            taken.append(flat)
        else:
            lo = np.searchsorted(selected, offsets[i])
            hi = np.searchsorted(selected, offsets[i + 1])
            taken.append(flat[selected[lo:hi] - offsets[i]])
    if not taken:
        return CutPool()
    flat = np.concatenate(taken)
    anchors = np.repeat(np.flatnonzero(counts), [f.size for f in taken])
    return CutPool(anchors, np.stack([ju[flat], ku[flat]], axis=1))


@st.composite
def partitions_and_caps(draw):
    """A partition of n = 2..40 points into K = 1..n clusters, and a cap: none,
    0, small, up to 2 n^2, or at least the number of tight pair cuts."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, n))
    labels = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    p = Partition(k, np.array(draw(st.permutations(labels))))
    tight = len(reference_active_cuts(partition_matrix(p)))
    cap = draw(st.one_of(
        st.none(), st.just(0), st.integers(1, 5), st.integers(0, 2 * n * n),
        st.integers(tight, tight + 10),
    ))
    return p, cap


@settings(max_examples=150, deadline=None)
@given(partitions_and_caps(), st.integers(0, 2**64 - 1))
def test_active_cuts_equal_the_numeric_scan(instance, seed):
    p, cap = instance
    got = active_cuts(p, cap=cap, seed=seed)
    ref = reference_active_cuts(partition_matrix(p), cap=cap, seed=seed)
    for a, b in ((got.i, ref.i), (got.s, ref.s)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def test_active_cuts_identity_empty():
    assert len(active_cuts(Partition(5, np.arange(5)))) == 0


def test_active_cuts_single_cluster_all_tight():
    pool = active_cuts(Partition(1, np.zeros(3, dtype=int)))
    assert len(pool) == 3
    assert set(cut_rows(pool)) == {(0, (1, 2)), (1, (0, 2)), (2, (0, 1))}


def test_active_cuts_five_point_frozen_tight_set(five_point):
    _, planted, _ = five_point
    x = partition_matrix(planted)
    pool = active_cuts(planted)
    # independent enumeration of all 30 pair cuts
    expected = set()
    for i in range(5):
        for j, k in itertools.combinations([v for v in range(5) if v != i], 2):
            w = x[i, j] + x[i, k] - x[i, i] - x[j, k]
            if abs(w) <= 1e-9:
                expected.add((i, (j, k)))
    assert len(expected) == 21
    assert set(cut_rows(pool)) == expected


def test_active_cuts_sampling_deterministic_and_capped():
    rng = np.random.default_rng(24)
    p = random_partition(rng, 30, 3)
    full = active_cuts(p)
    capped_a = active_cuts(p, cap=25, seed=99)
    capped_b = active_cuts(p, cap=25, seed=99)
    capped_c = active_cuts(p, cap=25, seed=100)
    assert len(capped_a) == 25
    assert capped_a == capped_b
    assert capped_a != capped_c
    assert (reference_lookup(full, capped_a) >= 0).all()


def floyd_one_draw_per_step(rng, total, size):
    """Floyd's sampling with one ``rng.integers`` call per step: the
    reference for the vectorised draw."""
    chosen = set()
    for j in range(total - size, total):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return np.array(sorted(chosen), dtype=np.int64)


@st.composite
def sample_shapes(draw):
    total = draw(st.one_of(st.integers(1, 5000), st.integers(5000, 3 * 2**31)))
    return total, draw(st.integers(0, min(total, 3000)))


@settings(max_examples=60, deadline=None)
@given(sample_shapes(), st.integers(0, 2**32 - 1))
def test_sample_without_replacement_keeps_stream(shape, seed):
    total, size = shape
    ref_rng = np.random.Generator(np.random.Philox(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    expected = floyd_one_draw_per_step(ref_rng, total, size)
    got = _sample_without_replacement(rng, total, size)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    # the generator is left where the per-step draws leave it
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def test_packed_column_count(five_point):
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    assert lp.n_vars == packed_len(5)
    assert lp.q.shape[0] == 30
