"""Separation of violated facet inequalities at a fractional solution.

Both separators grow sorted sets S level by level from every anchor i.  A set
is extended by a k > max(S), k != i, and its violation follows as

    w_i(S + {k}) = w_i(S) + X_ik - sum_{l in S} X_lk,    w_i({j}) = X_ij - X_ii.

The greedy heuristic keeps each set's best extension; the exhaustive
enumeration keeps every one, so an empty result is a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lpkmeans.lp_model import CutPool, _pad

__all__ = ["SeparationLimit", "SeparationReport", "separate_greedy", "separate_exhaustive"]

_ENUM_BUDGET = 2.8e7  # largest n^(t_max + 1) an exhaustive separation may reach


class SeparationLimit(ValueError):
    """An exhaustive separation beyond the enumeration budget."""


@dataclass
class SeparationReport:
    """Violated cuts found, row r of ``cuts`` violated by ``violations[r]``."""

    cuts: CutPool = field(default_factory=CutPool)
    violations: np.ndarray = field(default_factory=lambda: np.empty(0))

    def order(self) -> np.ndarray:
        """Rows most violated first; ties by (i, S), S compared as a tuple
        (the -1 padding puts a set before its extensions)."""
        return np.lexsort((*self.cuts.s.T[::-1], self.cuts.i, -self.violations))


def _grow(x: np.ndarray, t_max: int, eps_vio: float, exhaustive: bool) -> SeparationReport:
    """Every (i, S) with 2 <= |S| <= t_max violated by more than eps_vio
    among the sets grown from each anchor i.  Rows of one level carry S, its
    violation w and its column sums sum_{l in S} X_lk; a greedy row keeps its
    argmax extension (ties to the smallest k), an exhaustive row all of them."""
    n = x.shape[0]
    col = np.arange(n)
    upto = col <= col[:, None]  # upto[j, k]: k <= j, no extension of a set ending at j
    anchors, sets, violations = [], [], []
    for i in range(n):
        s, w, colsum = col[:, None], x[i] - x[i, i], x
        for size in range(2, t_max + 1):
            gamma = x[i] - colsum  # gamma[r, k] = X_ik - sum_{l in S_r} X_lk
            gamma[upto[s[:, -1]]] = -np.inf
            gamma[:, i] = -np.inf
            gamma[s[:, -1] == i] = -np.inf  # the row S = {i} of the first level
            if exhaustive:  # the kept extensions, as flat indices r * n + k into gamma
                flat = np.flatnonzero(gamma > -np.inf)
            else:
                flat = np.arange(len(gamma)) * n + gamma.argmax(axis=1)
                flat = flat[gamma.ravel()[flat] > -np.inf]
            r, k = np.divmod(flat, n)
            w = w[r] + gamma.ravel()[flat]
            hit = w > eps_vio
            if hit.any():
                anchors.append(np.full(np.count_nonzero(hit), i))
                sets.append(_pad(np.column_stack([s[r[hit]], k[hit]]), t_max))
                violations.append(w[hit])
            if size < t_max:
                s, colsum = np.column_stack([s[r], k]), colsum[r] + x[k]
    if not anchors:
        return SeparationReport()
    cuts = CutPool(np.concatenate(anchors), np.concatenate(sets))
    return SeparationReport(cuts, np.concatenate(violations))


def separate_greedy(x: np.ndarray, t_max: int, eps_vio: float = 1e-6) -> SeparationReport:
    """Grow S greedily from every anchor pair (i, j), recording each
    intermediate set whose inequality is violated by more than eps_vio.

    From S the candidate k > max(S) maximizing X_ik - sum_{l in S} X_lk is
    appended, and the violation is maintained incrementally.  Deterministic:
    argmax ties break toward the smallest index.
    """
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    return _grow(x, t_max, eps_vio, exhaustive=False)


def separate_exhaustive(
    x: np.ndarray, t_max: int, eps_vio: float = 1e-6, cap: int | None = None
) -> SeparationReport:
    """Enumerate every (i, S) with 2 <= |S| <= t_max; empty result proves no
    violated inequality exists at eps_vio.  Returns at most ``cap`` cuts,
    most violated first.  Raises :class:`SeparationLimit` when n^(t_max + 1)
    exceeds the enumeration budget."""
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    n = x.shape[0]
    if float(n) ** (t_max + 1) > _ENUM_BUDGET:
        raise SeparationLimit(f"exhaustive separation with t_max={t_max} infeasible for n={n}")
    report = _grow(x, t_max, eps_vio, exhaustive=True)
    order = report.order()[:cap]
    return SeparationReport(report.cuts.take(order), report.violations[order])
