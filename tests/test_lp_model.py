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
from lpkmeans.lp_model import (
    CutPool,
    FacetInequality,
    active_cuts,
    _sample_without_replacement,
    all_cuts,
    build,
    violation,
)

from conftest import random_partition, random_points


def test_facet_inequality_canonicalization():
    cut = FacetInequality(3, (5, 1, 2))
    assert cut.s == (1, 2, 5)
    with pytest.raises(ValueError):
        FacetInequality(1, (1, 2))
    with pytest.raises(ValueError):
        FacetInequality(0, (2,))
    with pytest.raises(ValueError):
        FacetInequality(0, (2, 2))


def test_cut_pool_deduplicates():
    pool = CutPool()
    assert pool.add(FacetInequality(0, (1, 2)))
    assert not pool.add(FacetInequality(0, (2, 1)))
    assert pool.add(FacetInequality(1, (0, 2)))
    assert len(pool) == 2
    assert FacetInequality(0, (1, 2)) in pool


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
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
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
        pool = CutPool(all_cuts(n, min(3, k)))
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
    assert violation(x, FacetInequality(0, (1, 2))) == pytest.approx(0.6, abs=1e-15)


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
            assert violation(x, FacetInequality(i, tuple(int(v) for v in s))) <= 1e-12
            trials += 1


def test_violation_nonpositive_at_reference_matrix(five_point):
    xt = reference_nontight_matrix(1)
    for cut in all_cuts(5, 2):
        assert violation(xt, cut) <= 1e-12


def test_build_incremental_consistency(five_point):
    _, _, d = five_point
    base = [FacetInequality(0, (1, 2)), FacetInequality(1, (2, 3))]
    extra = FacetInequality(2, (3, 4))
    lp_incr = build(d, 2, CutPool(base + [extra]))
    lp_full = build(d, 2, CutPool(base))
    # appending the cut reproduces the row-for-row identical structure
    assert lp_incr.q.shape[0] == lp_full.q.shape[0] + 1
    a = lp_incr.q[:2].toarray()
    b = lp_full.q.toarray()
    assert np.array_equal(a, b)
    assert lp_incr.cuts[:2] == lp_full.cuts


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
        packed = lp.objective(pack_matrix(x))
        assert abs(direct - packed) <= 1e-12 * (1.0 + abs(direct))


# ---------------------------------------------------------------------------
# active_cuts
# ---------------------------------------------------------------------------


def test_active_cuts_identity_empty():
    x = np.eye(5)
    assert len(active_cuts(x, 2)) == 0


def test_active_cuts_single_cluster_all_tight():
    x = np.full((3, 3), 1 / 3)
    pool = active_cuts(x, 2)
    assert len(pool) == 3
    assert {(c.i, c.s) for c in pool} == {(0, (1, 2)), (1, (0, 2)), (2, (0, 1))}


def test_active_cuts_five_point_frozen_tight_set(five_point):
    _, planted, _ = five_point
    x = partition_matrix(planted)
    pool = active_cuts(x, 2, eps_act=1e-9)
    # independent enumeration of all 30 pair cuts
    expected = set()
    for i in range(5):
        for j, k in itertools.combinations([v for v in range(5) if v != i], 2):
            w = x[i, j] + x[i, k] - x[i, i] - x[j, k]
            if abs(w) <= 1e-9:
                expected.add((i, (j, k)))
    assert len(expected) == 21
    assert {(c.i, c.s) for c in pool} == expected


def test_active_cuts_sampling_deterministic_and_capped():
    rng = np.random.default_rng(24)
    p = random_partition(rng, 30, 3)
    x = partition_matrix(p)
    full = active_cuts(x, 2)
    capped_a = active_cuts(x, 2, cap=25, seed=99)
    capped_b = active_cuts(x, 2, cap=25, seed=99)
    capped_c = active_cuts(x, 2, cap=25, seed=100)
    assert len(capped_a) == 25
    assert [c.sort_key() for c in capped_a] == [c.sort_key() for c in capped_b]
    assert [c.sort_key() for c in capped_a] != [c.sort_key() for c in capped_c]
    keys = {c.sort_key() for c in full}
    assert all(c.sort_key() in keys for c in capped_a)


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


def test_active_cuts_triples():
    x = np.full((4, 4), 0.25)
    pool = active_cuts(x, 3)
    # every pair cut has w = 0.25, every triple w = 2*0.25 - 3*0.25 < 0;
    # only the pair cuts are tight
    sizes = {len(c.s) for c in pool}
    assert sizes == {2}
    assert len(pool) == 4 * 3


def test_packed_column_count(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    assert lp.n_vars == packed_len(5)
    assert lp.q.shape[0] == 30
