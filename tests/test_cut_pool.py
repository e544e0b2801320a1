"""Properties of the columnar cut pool against per-cut reference code."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkmeans.core import packed_index, packed_len
from lpkmeans.lp_model import CutPool, FacetInequality, all_cuts, build, violation
from lpkmeans.separation import separate_exhaustive, separate_greedy

PROPERTY = settings(max_examples=60, deadline=None)


def reference_cut_rows(cuts: list[FacetInequality], n: int) -> sp.csr_matrix:
    """One row per cut, assembled cut by cut through COO."""
    nv = packed_len(n)
    rows, cols, vals = [], [], []
    for r, cut in enumerate(cuts):
        s = np.asarray(cut.s)
        ju, ku = np.triu_indices(s.size, 1)
        ccols = np.concatenate([
            packed_index(np.minimum(cut.i, s), np.maximum(cut.i, s), n),
            [packed_index(cut.i, cut.i, n)],
            packed_index(s[ju], s[ku], n),
        ])
        cvals = np.concatenate([np.ones(s.size), [-1.0], -np.ones(ju.size)])
        rows.append(np.full(ccols.size, r))
        cols.append(ccols)
        vals.append(cvals)
    if not cuts:
        return sp.csr_matrix((0, nv))
    q = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(len(cuts), nv)
    )
    q.sort_indices()
    return q


@st.composite
def cut_lists(draw, max_n=30, max_cuts=40):
    """n and a list of cuts with |S| in {2, 3, 4}, duplicates possible."""
    n = draw(st.integers(3, max_n))
    cuts = []
    for _ in range(draw(st.integers(0, max_cuts))):
        size = draw(st.integers(2, min(4, n - 1)))
        members = draw(st.permutations(range(n)))[: size + 1]
        cuts.append((members[0], tuple(members[1:])))
    return n, cuts


def symmetric(seed: int, n: int, levels: int | None = None) -> np.ndarray:
    """Random symmetric matrix; with ``levels``, entries from a small grid so
    that violations tie."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) if levels is None else rng.integers(0, levels, (n, n)) / levels
    return np.triu(a) + np.triu(a, 1).T


@PROPERTY
@given(cut_lists())
def test_cut_rows_match_reference(case):
    n, raw = case
    pool = CutPool(FacetInequality(i, s) for i, s in raw)
    d = np.zeros((n, n))
    q = build(d, 2, pool).q
    ref = reference_cut_rows(list(pool), n)
    assert q.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(q, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY
@given(cut_lists(), st.integers(0, 2**32 - 1))
def test_violations_match_scalar_formula(case, seed):
    n, raw = case
    pool = CutPool(FacetInequality(i, s) for i, s in raw)
    x = symmetric(seed, n)
    w = pool.violations(x)
    for cut, value in zip(pool, w):
        if len(cut.s) == 2:
            assert value == violation(x, cut)
        else:
            assert abs(value - violation(x, cut)) <= 1e-15
    assert w.shape == (len(pool),)


@PROPERTY
@given(cut_lists(), st.integers(0, 2**32 - 1))
def test_deduplication_keeps_first_insertion_order(case, seed):
    n, raw = case
    rng = np.random.default_rng(seed)
    # every cut twice, the second time with S permuted
    doubled = raw + [(i, tuple(rng.permutation(s).tolist())) for i, s in raw]
    pool = CutPool(FacetInequality(i, s) for i, s in doubled)

    first = list(dict.fromkeys((i, tuple(sorted(s))) for i, s in raw))
    assert [c.sort_key() for c in pool] == first
    assert pool.extend(CutPool(pool)) == 0
    assert all(FacetInequality(i, s) in pool for i, s in doubled)

    # a limit counts only the cuts actually added
    half = pool.take(slice(None, None, 2))
    missing = len(pool) - len(half)
    assert half.extend(pool, limit=1) == min(1, missing)
    assert pool.lookup(half).tolist() == [first.index(c.sort_key()) for c in half]


@PROPERTY
@given(st.integers(4, 12), st.sampled_from([2, 3, 4]), st.sampled_from([None, 2, 4]),
       st.integers(0, 2**32 - 1))
def test_separation_order_matches_tuple_sort(n, t_max, levels, seed):
    x = symmetric(seed, n, levels)
    for report in (separate_greedy(x, t_max, 1e-6), separate_exhaustive(x, min(t_max, 3), 1e-6)):
        rows = [(-w, c.i, c.s) for c, w in zip(report.cuts, report.violations.tolist())]
        ordered = report.cuts.take(report.order())
        assert [(c.i, c.s) for c in ordered] == [(i, s) for _, i, s in sorted(rows)]
    # exhaustive output is already in that order
    assert np.array_equal(report.order(), np.arange(len(report.cuts)))


def test_all_cuts_order_and_count():
    for n, t in ((5, 2), (6, 3), (6, 4), (3, 4)):
        expected = [
            (i, s)
            for i in range(n)
            for size in range(2, t + 1)
            for s in itertools.combinations([v for v in range(n) if v != i], size)
        ]
        assert [c.sort_key() for c in all_cuts(n, t)] == expected
