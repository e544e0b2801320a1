"""LP relaxation over packed symmetric matrices: variable indexing, the
trace/row-sum equality system, bound box [0, 1], and a dynamic pool of facet
inequalities of the form

    sum_{j in S} X_ij  <=  X_ii + sum_{j < k in S} X_jk,    2 <= |S|.

The pool is columnar: an anchor array ``i`` and a set array ``s`` whose rows
are sorted and padded with -1.  Building the cut rows, evaluating the
violations and deduplicating are array operations over all rows at once.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from lpkmeans.core import packed_diag_indices, packed_index, packed_len

__all__ = [
    "FacetInequality",
    "CutPool",
    "LpStandardForm",
    "build",
    "violation",
    "active_cuts",
    "all_cuts",
]

_ENUM_BUDGET = 2.8e7


@dataclass(frozen=True)
class FacetInequality:
    """Cut identified by a point index i and a sorted index set S, i not in S."""

    i: int
    s: tuple[int, ...]

    def __post_init__(self):
        s = tuple(sorted(int(v) for v in self.s))
        if len(s) < 2 or len(set(s)) != len(s):
            raise ValueError("S must contain at least two distinct indices")
        if self.i in s:
            raise ValueError("i must not belong to S")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", int(self.i))

    def sort_key(self) -> tuple:
        return (self.i, self.s)


def _pad(s: np.ndarray, width: int) -> np.ndarray:
    if s.shape[1] == width:
        return s
    out = np.full((s.shape[0], width), -1, dtype=np.int64)
    out[:, : s.shape[1]] = s
    return out


def _row_keys(i: np.ndarray, s: np.ndarray) -> np.ndarray:
    """One opaque key per (i, S) row; equal keys mean equal cuts of any size."""
    rows = np.empty((i.size, s.shape[1] + 1), dtype=np.int64)
    rows[:, 0] = i
    rows[:, 1:] = s
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


class CutPool:
    """Ordered, duplicate-free collection of facet inequalities.

    Row r is the cut (i[r], S_r), where S_r holds the non-negative entries of
    s[r] in ascending order and -1 pads the row to the widest set in the
    pool.  Rows keep their insertion order; a row equal to an earlier one is
    never stored.  Iterating yields :class:`FacetInequality` views.
    """

    def __init__(self, cuts=()):
        if isinstance(cuts, CutPool):
            self.i, self.s = cuts.i.copy(), cuts.s.copy()
            return
        cuts = list(cuts)
        self.i = np.empty(0, dtype=np.int64)
        self.s = np.empty((0, 2), dtype=np.int64)
        if cuts:
            width = max(len(c.s) for c in cuts)
            s = np.full((len(cuts), width), -1, dtype=np.int64)
            for r, cut in enumerate(cuts):
                s[r, : len(cut.s)] = cut.s
            self.extend(CutPool._of(np.array([c.i for c in cuts], dtype=np.int64), s))

    @staticmethod
    def _of(i: np.ndarray, s: np.ndarray) -> CutPool:
        """Wrap rows that are already canonical and distinct."""
        pool = CutPool()
        pool.i = np.asarray(i, dtype=np.int64)
        pool.s = np.asarray(s, dtype=np.int64)
        return pool

    @property
    def width(self) -> int:
        return self.s.shape[1]

    def __len__(self) -> int:
        return self.i.size

    def __iter__(self):
        for i, row in zip(self.i.tolist(), self.s.tolist()):
            yield FacetInequality(i, tuple(v for v in row if v >= 0))

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            row = self.s[idx]
            return FacetInequality(int(self.i[idx]), tuple(row[row >= 0].tolist()))
        return self.take(idx)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutPool):
            return NotImplemented
        width = max(self.width, other.width)
        return np.array_equal(self.i, other.i) and np.array_equal(
            _pad(self.s, width), _pad(other.s, width)
        )

    __hash__ = None

    def __contains__(self, cut: FacetInequality) -> bool:
        return bool(self.lookup(CutPool([cut]))[0] >= 0)

    def take(self, rows) -> CutPool:
        """The pool of the selected rows (a boolean mask or row indices), in
        the order selected."""
        return CutPool._of(self.i[rows], self.s[rows])

    def _stacked_keys(self, other: CutPool) -> np.ndarray:
        width = max(self.width, other.width)
        return _row_keys(
            np.concatenate([self.i, other.i]),
            np.concatenate([_pad(self.s, width), _pad(other.s, width)]),
        )

    def lookup(self, other: CutPool) -> np.ndarray:
        """Row of each cut of ``other`` in this pool, -1 where it is absent."""
        _, first, inverse = np.unique(
            self._stacked_keys(other), return_index=True, return_inverse=True
        )
        rows = first[inverse[len(self) :]]
        return np.where(rows < len(self), rows, -1)

    def extend(self, other: CutPool, limit: int | None = None) -> int:
        """Append the cuts of ``other`` that are not yet in the pool, in their
        order, stopping after ``limit`` of them; returns how many were added."""
        if len(other) == 0:
            return 0
        _, first = np.unique(self._stacked_keys(other), return_index=True)
        fresh = np.sort(first[first >= len(self)]) - len(self)
        if limit is not None:
            fresh = fresh[: max(limit, 0)]
        width = max(self.width, other.width)
        self.i = np.concatenate([self.i, other.i[fresh]])
        self.s = np.concatenate([_pad(self.s, width), _pad(other.s[fresh], width)])
        return fresh.size

    def add(self, cut: FacetInequality) -> bool:
        return self.extend(CutPool._of([cut.i], [cut.s])) == 1

    def violations(self, x: np.ndarray) -> np.ndarray:
        """w_i(S) of every row at X.  Sums run as in :func:`violation`, so the
        values agree bit for bit on rows as wide as the pool and on |S| <= 3."""
        valid = self.s >= 0
        s = np.where(valid, self.s, 0)
        at_i = np.where(valid, x[self.i[:, None], s], 0.0)
        sub = np.where(valid[:, :, None] & valid[:, None, :], x[s[:, :, None], s[:, None, :]], 0.0)
        pairs = np.triu(sub, 1).reshape(len(self), self.width**2).sum(axis=1)
        return at_i.sum(axis=1) - x[self.i, self.i] - pairs


@dataclass
class LpStandardForm:
    """min c.x  s.t.  a_eq x = b_eq,  q x <= 0,  lb <= x <= ub.

    Variables are the packed upper triangle (diagonal included) of the
    symmetric decision matrix; off-diagonal objective coefficients are doubled
    so c.x equals the full double-sum objective.  Row r of q is cut r of
    ``cuts``.
    """

    c: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    q: sp.csr_matrix
    lb: np.ndarray
    ub: np.ndarray
    n_points: int
    k: int
    cuts: CutPool

    @property
    def n_vars(self) -> int:
        return self.c.size

    def stacked(self) -> sp.csr_matrix:
        """Equality rows followed by cut rows, CSR with sorted columns."""
        if self.q.shape[0] == 0:
            return self.a_eq
        return sp.vstack([self.a_eq, self.q], format="csr")

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x)


def _equality_form(d: np.ndarray, k: int) -> LpStandardForm:
    """Objective, trace and row-sum equalities and bounds, with no cuts."""
    n = d.shape[0]
    if not (2 <= k <= n):
        raise ValueError(f"need 2 <= K <= n, got K={k}, n={n}")
    nv = packed_len(n)

    c = np.zeros(nv)
    iu, ju = np.triu_indices(n, 1)
    c[packed_index(iu, ju, n)] = 2.0 * d[iu, ju]
    c[packed_diag_indices(n)] = d[np.arange(n), np.arange(n)]

    # equality rows: trace first, then one unit-row-sum row per point
    i = np.repeat(np.arange(n), n)
    j = np.tile(np.arange(n), n)
    rows = np.concatenate([np.zeros(n, dtype=np.int64), 1 + i])
    cols = np.concatenate([packed_diag_indices(n), packed_index(np.minimum(i, j), np.maximum(i, j), n)])
    a_eq = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n + 1, nv))
    a_eq.sort_indices()
    b_eq = np.concatenate([[float(k)], np.ones(n)])
    return LpStandardForm(
        c=c, a_eq=a_eq, b_eq=b_eq, q=sp.csr_matrix((0, nv)), lb=np.zeros(nv), ub=np.ones(nv),
        n_points=n, k=k, cuts=CutPool(),
    )


def _cut_rows(pool: CutPool, n: int) -> sp.csr_matrix:
    """Row r: +1 at X_{i S} entries, -1 at X_ii and at every X_jk, j < k in S,
    columns sorted."""
    nv = packed_len(n)
    if len(pool) == 0:
        return sp.csr_matrix((0, nv))
    valid = pool.s >= 0
    s = np.where(valid, pool.s, 0)
    i = pool.i[:, None]
    ju, ku = np.triu_indices(pool.width, 1)
    cols = np.concatenate(
        [packed_index(np.minimum(i, s), np.maximum(i, s), n), packed_index(i, i, n),
         packed_index(s[:, ju], s[:, ku], n)], axis=1,
    )
    vals = np.concatenate(
        [np.ones(s.shape), -np.ones(i.shape), -np.ones((len(pool), ju.size))], axis=1
    )
    present = np.concatenate([valid, np.ones(i.shape, dtype=bool), valid[:, ku]], axis=1)
    cols = np.where(present, cols, nv)  # absent entries sort last, then drop
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    keep = cols < nv
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(len(pool), nv))


def build(d: np.ndarray, k: int, pool: CutPool, base: LpStandardForm | None = None) -> LpStandardForm:
    """Assemble the standard form for given squared distances and cut pool.

    ``base``, a form built earlier from the same distances and K, lends its
    objective, equality rows and bounds, so only the cut rows are assembled.
    """
    if base is None:
        base = _equality_form(d, k)
    return dataclasses.replace(base, q=_cut_rows(pool, base.n_points), cuts=pool)


def violation(x: np.ndarray, cut: FacetInequality) -> float:
    """w_i(S) = sum_{j in S} X_ij - X_ii - sum_{j<k in S} X_jk; > 0 means violated."""
    i = cut.i
    s = np.asarray(cut.s)
    w = float(x[i, s].sum()) - float(x[i, i])
    sub = x[np.ix_(s, s)]
    w -= float(np.triu(sub, 1).sum())
    return w


def _pair_violations(x: np.ndarray, i: int, ju: np.ndarray, ku: np.ndarray) -> np.ndarray:
    return x[i, ju] + x[i, ku] - x[i, i] - x[ju, ku]


def _sample_without_replacement(rng: np.random.Generator, total: int, size: int) -> np.ndarray:
    """Floyd's algorithm: uniform size-subset of range(total) without
    materializing the range."""
    chosen: set[int] = set()
    for j in range(total - size, total):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return np.array(sorted(chosen), dtype=np.int64)


def active_cuts(
    x: np.ndarray,
    t: int,
    eps_act: float = 1e-9,
    cap: int | None = None,
    seed: int = 0,
) -> CutPool:
    """Cuts with |S| <= t whose slack at X is within eps_act of zero.

    When more than ``cap`` cuts are tight, a uniform sample without
    replacement is drawn under ``seed``.  The t = 2 family is scanned in two
    passes so the full tight set never needs to be materialized.
    """
    n = x.shape[0]
    if t < 2:
        raise ValueError("t must be >= 2")
    if t == 2:
        return _active_cuts_pairs(x, eps_act, cap, seed)
    if float(n) ** (t + 1) > _ENUM_BUDGET:
        raise ValueError(f"tight-cut enumeration with t={t} infeasible for n={n}")
    pool = all_cuts(n, t)
    tight = pool.take(np.abs(pool.violations(x)) <= eps_act)
    if cap is not None and len(tight) > cap:
        rng = np.random.Generator(np.random.Philox(seed))
        tight = tight.take(_sample_without_replacement(rng, len(tight), cap))
    return tight


def _active_cuts_pairs(x: np.ndarray, eps_act: float, cap: int | None, seed: int) -> CutPool:
    n = x.shape[0]
    ju, ku = np.triu_indices(n, 1)

    def tight_flat(i: int) -> np.ndarray:
        w = _pair_violations(x, i, ju, ku)
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
    return CutPool._of(anchors, np.stack([ju[flat], ku[flat]], axis=1))


def all_cuts(n: int, t: int) -> CutPool:
    """The full relaxation's pool: every (i, S) with 2 <= |S| <= t, in
    (i, |S|, S) order."""
    width = min(t, n - 1)
    combos = [
        np.array(list(itertools.combinations(range(n - 1), size)), dtype=np.int64)
        for size in range(2, width + 1)
    ]
    anchors, sets = [], []
    for i in range(n):
        for c in combos:
            anchors.append(np.full(len(c), i, dtype=np.int64))
            sets.append(_pad(c + (c >= i), width))  # index into range(n) without i
    if not anchors:
        return CutPool()
    return CutPool._of(np.concatenate(anchors), np.concatenate(sets))
