"""Separation of violated facet inequalities at a fractional solution: a
greedy set-growing heuristic plus an exhaustive enumeration fallback."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from lpkmeans.lp_model import CutPool, _pad

__all__ = ["SeparationReport", "separate_greedy", "separate_exhaustive"]

_ENUM_BUDGET = 2.8e7  # largest n^(t_max + 1) an exhaustive separation may reach


@dataclass
class SeparationReport:
    """Violated cuts found, row r of ``cuts`` violated by ``violations[r]``."""

    cuts: CutPool = field(default_factory=CutPool)
    violations: np.ndarray = field(default_factory=lambda: np.empty(0))

    def order(self) -> np.ndarray:
        """Rows most violated first; ties by (i, S), S compared as a tuple
        (the -1 padding puts a set before its extensions)."""
        return np.lexsort((*self.cuts.s.T[::-1], self.cuts.i, -self.violations))


def _report(chunks: list[tuple], width: int) -> SeparationReport:
    """Report from chunks (anchors, padded sets, violations) of distinct cuts."""
    if not chunks:
        return SeparationReport()
    anchors, sets, violations = zip(*chunks)
    cuts = CutPool(np.concatenate(anchors), np.concatenate([_pad(s, width) for s in sets]))
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
    if t_max == 2:
        return _greedy_pairs(x, eps_vio)

    n = x.shape[0]
    diag = np.diag(x)
    sets, found = [], []
    for i in range(n):
        xi = x[i]
        for j in range(n):
            if j == i:
                continue
            s = [j]
            w = xi[j] - diag[i]
            colsum = x[j].copy()  # sum over l in S of X_lk, as a function of k
            c = j
            while len(s) < t_max:
                lo = c + 1
                if lo >= n:
                    break
                gamma = xi[lo:] - colsum[lo:]
                if i >= lo:
                    gamma = gamma.copy()
                    gamma[i - lo] = -np.inf
                kk = int(gamma.argmax()) + lo
                if not np.isfinite(gamma[kk - lo]):
                    break
                s.append(kk)
                w += gamma[kk - lo]
                if w > eps_vio:
                    sets.append(s + [-1] * (t_max - len(s)))
                    found.append((i, float(w)))
                colsum += x[kk]
                c = kk
    if not found:
        return SeparationReport()
    anchors, w = zip(*found)
    return _report([(np.array(anchors), np.array(sets), np.array(w))], t_max)


def _greedy_pairs(x: np.ndarray, eps_vio: float) -> SeparationReport:
    """Vectorized t_max = 2 greedy: for each (i, j) only one k is appended."""
    n = x.shape[0]
    diag = np.diag(x)
    col = np.arange(n)
    chunks = []
    for i in range(n):
        gamma = x[i][None, :] - x  # gamma[j, k] = X_ik - X_jk
        gamma[:, i] = -np.inf
        gamma[col[:, None] >= col[None, :]] = -np.inf  # require k > j
        k_star = gamma.argmax(axis=1)
        best = gamma[np.arange(n), k_star]
        w = x[i] - diag[i] + best
        j = np.flatnonzero(np.isfinite(best) & (col != i) & (w > eps_vio))
        if j.size:
            chunks.append((np.full(j.size, i), np.stack([j, k_star[j]], axis=1), w[j]))
    return _report(chunks, 2)


def separate_exhaustive(
    x: np.ndarray, t_max: int, eps_vio: float = 1e-6, cap: int | None = None
) -> SeparationReport:
    """Enumerate every (i, S) with 2 <= |S| <= t_max; empty result proves no
    violated inequality exists at eps_vio.  Returns at most ``cap`` cuts,
    most violated first."""
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    n = x.shape[0]
    if float(n) ** (t_max + 1) > _ENUM_BUDGET:
        raise ValueError(f"exhaustive separation with t_max={t_max} infeasible for n={n}")
    diag = np.diag(x)

    chunks = []
    ju, ku = np.triu_indices(n, 1)
    for i in range(n):
        w = x[i, ju] + x[i, ku] - diag[i] - x[ju, ku]
        hit = np.flatnonzero((w > eps_vio) & (ju != i) & (ku != i))
        if hit.size:
            chunks.append((np.full(hit.size, i), np.stack([ju[hit], ku[hit]], axis=1), w[hit]))
    if t_max >= 3:
        chunks += _exhaustive_triples(x, eps_vio)
    if t_max >= 4:
        chunks += _exhaustive_large(x, t_max, eps_vio)

    report = _report(chunks, t_max)
    order = report.order()
    if cap is not None:
        order = order[:cap]
    return SeparationReport(report.cuts.take(order), report.violations[order])


def _exhaustive_triples(x: np.ndarray, eps_vio: float) -> list[tuple]:
    n = x.shape[0]
    diag = np.diag(x)
    col = np.arange(n)
    chunks = []
    for i in range(n):
        xi = x[i]
        for j in range(n - 2):
            if j == i:
                continue
            u = xi - x[j]  # u[k] = X_ik - X_jk
            base = xi[j] - diag[i]
            w = base + u[:, None] + u[None, :] - x  # over (k, l)
            bad = (col == i) | (col <= j)
            w[bad, :] = -np.inf
            w[:, bad] = -np.inf
            w[col[:, None] >= col[None, :]] = -np.inf  # k < l
            kk, ll = np.nonzero(w > eps_vio)
            if kk.size:
                sets = np.stack([np.full(kk.size, j), kk, ll], axis=1)
                chunks.append((np.full(kk.size, i), sets, w[kk, ll]))
    return chunks


def _exhaustive_large(x: np.ndarray, t_max: int, eps_vio: float) -> list[tuple]:
    n = x.shape[0]
    diag = np.diag(x)
    chunks = []
    for i in range(n):
        others = [v for v in range(n) if v != i]
        for size in range(4, t_max + 1):
            for s in itertools.combinations(others, size):
                idx = np.array(s)
                w = float(x[i, idx].sum()) - diag[i] - float(np.triu(x[np.ix_(idx, idx)], 1).sum())
                if w > eps_vio:
                    chunks.append((np.array([i]), idx[None, :], np.array([w])))
    return chunks
