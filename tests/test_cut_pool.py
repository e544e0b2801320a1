"""Properties of the columnar cut pool against per-cut reference code."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkmeans.core import packed_index, packed_len
from lpkmeans.lp_model import CutPool, _cut_rows, all_cuts, build
from lpkmeans.separation import separate_exhaustive, separate_greedy

from conftest import (
    cut_pool,
    cut_rows,
    raw_cut_pool,
    reference_extend,
    reference_lookup,
    violations,
)

PROPERTY = settings(max_examples=60, deadline=None)


def reference_violation(x: np.ndarray, i: int, s: tuple[int, ...]) -> float:
    """w_i(S) = sum_{j in S} X_ij - X_ii - sum_{j<k in S} X_jk of one cut."""
    s = np.asarray(s)
    w = float(x[i, s].sum()) - float(x[i, i])
    w -= float(np.triu(x[np.ix_(s, s)], 1).sum())
    return w


def reference_cut_rows(cuts: list[tuple[int, tuple[int, ...]]], n: int) -> sp.csr_matrix:
    """One row per (i, S) cut, assembled cut by cut through COO."""
    nv = packed_len(n)
    rows, cols, vals = [], [], []
    for r, (i, s) in enumerate(cuts):
        s = np.asarray(s)
        ju, ku = np.triu_indices(s.size, 1)
        ccols = np.concatenate([
            packed_index(np.minimum(i, s), np.maximum(i, s), n),
            [packed_index(i, i, n)],
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
def cuts_of(draw, n, max_cuts):
    """A list of cuts on n points with |S| in {2, 3, 4}, duplicates possible."""
    cuts = []
    for _ in range(draw(st.integers(0, max_cuts))):
        size = draw(st.integers(2, min(4, n - 1)))
        members = draw(st.permutations(range(n)))[: size + 1]
        cuts.append((members[0], tuple(members[1:])))
    return cuts


@st.composite
def cut_lists(draw, max_n=30, max_cuts=40):
    """n and a list of cuts with |S| in {2, 3, 4}, duplicates possible."""
    n = draw(st.integers(3, max_n))
    return n, draw(cuts_of(n, max_cuts))


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
    pool = cut_pool(raw)
    d = np.zeros((n, n))
    q = build(d, 2, pool).q
    ref = reference_cut_rows(cut_rows(pool), n)
    assert q.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(q, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY
@given(cut_lists(), st.integers(0, 2**32 - 1))
def test_violations_match_scalar_formula(case, seed):
    n, raw = case
    pool = cut_pool(raw)
    x = symmetric(seed, n)
    w = violations(pool, x)
    for (i, s), value in zip(cut_rows(pool), w):
        if len(s) == 2:
            assert value == reference_violation(x, i, s)
        else:
            assert abs(value - reference_violation(x, i, s)) <= 1e-15
    assert w.shape == (len(pool),)


@PROPERTY
@given(cut_lists(), st.integers(0, 2**32 - 1))
def test_deduplication_keeps_first_insertion_order(case, seed):
    n, raw = case
    rng = np.random.default_rng(seed)
    # every cut twice, the second time with S permuted
    doubled = raw + [(i, tuple(rng.permutation(s).tolist())) for i, s in raw]
    pool = cut_pool(doubled)

    first = list(dict.fromkeys((i, tuple(sorted(s))) for i, s in raw))
    assert cut_rows(pool) == first
    every, none = np.ones(len(pool), dtype=bool), np.zeros(len(pool), dtype=bool)
    assert pool.merge(every, pool[:])[0] == pool
    # every row of the doubled list, repeats included, is a row of the pool
    repeated = CutPool(np.concatenate([pool.i, pool.i]), np.concatenate([pool.s, pool.s]))
    merged, rows = pool.merge(none, repeated)
    assert merged == pool and rows.tolist() == list(range(len(pool)))

    # a limit counts only the cuts actually added
    half = pool.take(slice(None, None, 2))
    missing = len(pool) - len(half)
    merged, _ = half.merge(np.ones(len(half), dtype=bool), pool, limit=1)
    assert len(merged) - len(half) == min(1, missing)
    assert pool.merge(none, half)[1].tolist() == [first.index(c) for c in cut_rows(half)]


@st.composite
def pool_rounds(draw):
    """A round's pool change: n, a pool of cuts with |S| in {2, 3, 4}, a
    mask of the rows it keeps, and separated cuts, some of them already in
    the pool (kept or dropped) and some repeated, with a limit."""
    n, raw = draw(cut_lists(max_n=12, max_cuts=40))
    pool = cut_pool(raw)
    keep = np.array(draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool))),
                    dtype=bool)
    cuts = draw(cuts_of(n, 30))
    if len(pool):
        cuts += draw(st.lists(st.sampled_from(cut_rows(pool)), max_size=10))
    cuts = draw(st.permutations(cuts))
    return n, pool, keep, raw_cut_pool(cuts), draw(st.one_of(st.none(), st.integers(0, 30)))


@PROPERTY
@given(pool_rounds())
def test_merge_matches_take_extend_lookup(case):
    n, pool, keep, cuts, limit = case
    merged, rows = pool.merge(keep, cuts, limit=limit)
    kept, added = reference_extend(pool.take(keep), cuts, limit=limit)
    assert merged == kept
    assert len(merged) - int(keep.sum()) == added
    assert np.array_equal(rows, reference_lookup(pool, kept))


@PROPERTY
@given(pool_rounds())
def test_build_reusing_kept_rows_matches_full_rebuild(case):
    n, pool, keep, cuts, limit = case
    d = np.zeros((n, n))
    lp = build(d, 2, pool)
    merged, _ = pool.merge(keep, cuts, limit=limit)
    q = build(d, 2, merged, base=lp, kept=keep).q
    ref = _cut_rows(merged, n)
    assert q.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(q, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY
@given(st.integers(4, 12), st.sampled_from([2, 3, 4]), st.sampled_from([None, 2, 4]),
       st.integers(0, 2**32 - 1))
def test_separation_order_matches_tuple_sort(n, t_max, levels, seed):
    x = symmetric(seed, n, levels)
    for report in (separate_greedy(x, t_max, 1e-6), separate_exhaustive(x, min(t_max, 3), 1e-6)):
        rows = [(-w, i, s) for (i, s), w in zip(cut_rows(report.cuts), report.violations.tolist())]
        ordered = report.cuts.take(report.order())
        assert cut_rows(ordered) == [(i, s) for _, i, s in sorted(rows)]
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
        assert cut_rows(all_cuts(n, t)) == expected
