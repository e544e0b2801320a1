"""LP relaxation over packed symmetric matrices: variable indexing, the
trace/row-sum equality system, bound box [0, 1], and a dynamic pool of facet
inequalities of the form

    sum_{j in S} X_ij  <=  X_ii + sum_{j < k in S} X_jk,    2 <= |S|.

The pool is columnar: an anchor array ``i`` and a set array ``s`` whose rows
are sorted and padded with -1.  Building the cut rows and merging pools
are array operations over all rows at once.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from lpkmeans.core import Partition, packed_diag_indices, packed_index, packed_len

# scipy.sparse is imported where a sparse matrix is first built, so that the
# certify pipeline, which builds none, never loads it
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["CutPool", "LpStandardForm", "build", "active_cuts", "all_cuts"]


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
    never stored.  The constructor wraps rows that are already canonical and
    distinct; :meth:`merge` is the way to add rows that may repeat.
    """

    def __init__(self, i=(), s=None):
        self.i = np.asarray(i, dtype=np.int64)
        self.s = np.asarray(s if s is not None else np.empty((0, 2)), dtype=np.int64)

    @property
    def width(self) -> int:
        return self.s.shape[1]

    def __len__(self) -> int:
        return self.i.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutPool):
            return NotImplemented
        width = max(self.width, other.width)
        return np.array_equal(self.i, other.i) and np.array_equal(
            _pad(self.s, width), _pad(other.s, width)
        )

    __hash__ = None

    def take(self, rows) -> CutPool:
        """The pool of the selected rows (a boolean mask, row indices or a
        slice), in the order selected."""
        return CutPool(self.i[rows], self.s[rows])

    __getitem__ = take

    def merge(
        self, keep: np.ndarray, cuts: CutPool, limit: int | None = None
    ) -> tuple[CutPool, np.ndarray]:
        """The pool of the rows the mask ``keep`` selects, in order, followed
        by the cuts of ``cuts`` not among them, first occurrences in their
        order, at most ``limit`` of them; and the row in this pool of every
        row of that pool, -1 where it is absent.  A cut this pool holds in a
        row ``keep`` drops is appended again and maps to that row.  One sort
        of the two pools' rows together serves both results."""
        width = max(self.width, cuts.width)
        # the cuts come first, so a key's first index is its first cut
        _, first, inverse = np.unique(
            _row_keys(np.concatenate([cuts.i, self.i]),
                      np.concatenate([_pad(cuts.s, width), _pad(self.s, width)])),
            return_index=True, return_inverse=True,
        )
        order = np.arange(len(cuts))
        row_of = np.full(first.size, -1, dtype=np.int64)  # by key; a pool holds each key once
        row_of[inverse[len(cuts):]] = np.arange(len(self))
        rows = row_of[inverse[: len(cuts)]]
        # the trailing False is the one that row -1, absent, reads
        fresh = order[(first[inverse[: len(cuts)]] == order) & ~np.append(keep, False)[rows]]
        if limit is not None:
            fresh = fresh[: max(limit, 0)]
        kept = np.flatnonzero(keep)
        merged = CutPool(
            np.concatenate([self.i[kept], cuts.i[fresh]]),
            np.concatenate([_pad(self.s[kept], width), _pad(cuts.s[fresh], width)]),
        )
        return merged, np.concatenate([kept, rows[fresh]])


@dataclass
class LpStandardForm:
    """min c.x  s.t.  a_eq x = b_eq,  q x <= 0,  lb <= x <= ub.

    Variables are the packed upper triangle (diagonal included) of the
    symmetric decision matrix; off-diagonal objective coefficients are doubled
    so c.x equals the full double-sum objective.  Row r of q is cut r of the
    pool it was built from.
    """

    c: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    q: sp.csr_matrix
    lb: np.ndarray
    ub: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.c.size


def _equality_form(d: np.ndarray, k: int) -> LpStandardForm:
    """Objective, trace and row-sum equalities and bounds, with no cuts."""
    import scipy.sparse as sp

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
        c=c, a_eq=a_eq, b_eq=b_eq, q=sp.csr_matrix((0, nv)), lb=np.zeros(nv), ub=np.ones(nv)
    )


def _cut_rows(pool: CutPool, n: int) -> sp.csr_matrix:
    """Row r: +1 at X_{i S} entries, -1 at X_ii and at every X_jk, j < k in S,
    columns sorted."""
    import scipy.sparse as sp

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


def build(
    d: np.ndarray, k: int, pool: CutPool, base: LpStandardForm | None = None,
    kept: np.ndarray | None = None,
) -> LpStandardForm:
    """Assemble the standard form for given squared distances and cut pool.

    ``base``, a form built earlier from the same distances and K, lends its
    objective, equality rows and bounds, so only the cut rows are assembled.
    ``kept``, a mask over the cut rows of ``base``, says that the rows it
    selects are, in order, the first rows of ``pool``, as
    :meth:`CutPool.merge` leaves them: those rows are taken from ``base``
    and only the rows after them are assembled.
    """
    import scipy.sparse as sp

    n = d.shape[0]
    if base is None:
        base = _equality_form(d, k)
    if kept is None:
        return dataclasses.replace(base, q=_cut_rows(pool, n))
    reused = base.q[kept]
    fresh = _cut_rows(pool[reused.shape[0]:], n)
    return dataclasses.replace(base, q=sp.vstack([reused, fresh], format="csr"))


def _sample_without_replacement(rng: np.random.Generator, total: int, size: int) -> np.ndarray:
    """Floyd's algorithm: uniform size-subset of range(total) without
    materializing the range.  Step j's draw from [0, j] is taken in one
    vectorised call, which yields the same draws as one call per step."""
    chosen: set[int] = set()
    draws = rng.integers(0, np.arange(total - size, total) + 1).tolist()
    for j, t in zip(range(total - size, total), draws):
        chosen.add(j if t in chosen else t)
    return np.array(sorted(chosen), dtype=np.int64)


def active_cuts(p: Partition, cap: int | None = None, seed: int = 0) -> CutPool:
    """Pair cuts (|S| = 2) tight at the partition matrix of ``p``, in (i, S)
    order: (i, {j, k}) with j or k in i's cluster, as every other slack is at
    most -1/n, so C(n-1, 2) - C(n - |C_i|, 2) at anchor i.  When more than
    ``cap`` are tight, a uniform sample without replacement is drawn under
    ``seed``."""
    n = p.n
    ju, ku = np.triu_indices(n, 1)
    outside = n - p.sizes[p.assign]  # points outside each anchor's cluster
    counts = (n - 1) * (n - 2) // 2 - outside * (outside - 1) // 2
    total = int(counts.sum())

    selected = None
    if cap is not None and total > cap:
        selected = _sample_without_replacement(np.random.Generator(np.random.Philox(seed)), total, cap)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    anchors = np.flatnonzero(counts)
    taken = []
    for i in anchors:
        same = p.assign == p.assign[i]
        flat = np.flatnonzero((same[ju] | same[ku]) & (ju != i) & (ku != i))
        if selected is not None:
            lo, hi = np.searchsorted(selected, offsets[i : i + 2])
            flat = flat[selected[lo:hi] - offsets[i]]
        taken.append(flat)
    if not taken:
        return CutPool()
    flat = np.concatenate(taken)
    return CutPool(np.repeat(anchors, [f.size for f in taken]), np.stack([ju[flat], ku[flat]], axis=1))


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
    return CutPool(np.concatenate(anchors), np.concatenate(sets))
