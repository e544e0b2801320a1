import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkmeans.core import partition_matrix
from lpkmeans.generators import reference_nontight_matrix
from lpkmeans.lp_model import CutPool
from lpkmeans.separation import (
    SeparationReport,
    _grow,
    separate_exhaustive,
    separate_greedy,
)

from conftest import cut_rows, random_partition, violations


def brute_violated(x: np.ndarray, t_max: int, eps_vio: float) -> set:
    """Independent double-loop enumeration of violated inequalities."""
    n = x.shape[0]
    out = set()
    for i in range(n):
        others = [v for v in range(n) if v != i]
        for size in range(2, t_max + 1):
            for s in itertools.combinations(others, size):
                w = sum(x[i, j] for j in s) - x[i, i]
                w -= sum(x[j, k] for j, k in itertools.combinations(s, 2))
                if w > eps_vio:
                    out.add((i, s))
    return out


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.random((n, n))
    x = 0.5 * (a + a.T)
    return x


def reference_greedy(x: np.ndarray, t_max: int, eps_vio: float) -> SeparationReport:
    """The greedy growth as one Python loop per anchor pair (i, j): from S
    append the k > max(S), k != i, maximizing X_ik - sum_{l in S} X_lk (ties
    to the smallest k), and record every set violated by more than eps_vio."""
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
    return SeparationReport(CutPool(anchors, sets), np.array(w))


@st.composite
def separation_matrices(draw):
    """Symmetric matrices of uniform values or of values on a 1/4 grid, whose
    repeated values force argmax ties."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 5, size=(n, n)) / 4 if draw(st.booleans()) else rng.random((n, n))
    return np.triu(a) + np.triu(a, 1).T


def test_greedy_empty_on_partition_matrices():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(3, 20))
        k = int(rng.integers(1, min(5, n) + 1))
        x = partition_matrix(random_partition(rng, n, k))
        for t in (2, 3):
            assert len(separate_greedy(x, t).cuts) == 0


def test_greedy_three_point_example():
    x = np.full((3, 3), 0.0)
    np.fill_diagonal(x, 0.5)
    x[0, 1] = x[1, 0] = 0.6
    x[0, 2] = x[2, 0] = 0.6
    x[1, 2] = x[2, 1] = 0.1
    report = separate_greedy(x, 2, eps_vio=1e-6)
    found = dict(zip(cut_rows(report.cuts), report.violations))
    assert (0, (1, 2)) in found
    assert found[(0, (1, 2))] == pytest.approx(0.6, abs=1e-15)


def test_greedy_empty_at_reference_matrix():
    assert len(separate_greedy(reference_nontight_matrix(1), 2).cuts) == 0


def test_exhaustive_empty_on_partition_matrix():
    rng = np.random.default_rng(42)
    x = partition_matrix(random_partition(rng, 9, 3))
    report = separate_exhaustive(x, 3)
    assert len(report.cuts) == 0


def test_exhaustive_three_point_example():
    x = np.full((3, 3), 0.0)
    np.fill_diagonal(x, 0.5)
    x[0, 1] = x[1, 0] = 0.6
    x[0, 2] = x[2, 0] = 0.6
    x[1, 2] = x[2, 1] = 0.1
    report = separate_exhaustive(x, 2)
    assert cut_rows(report.cuts) == [(0, (1, 2))]


@pytest.mark.parametrize("t_max", [2, 3])
def test_exhaustive_matches_bruteforce(t_max):
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        x = random_symmetric(rng, n)
        expected = brute_violated(x, t_max, 1e-6)
        report = separate_exhaustive(x, t_max, 1e-6)
        assert set(cut_rows(report.cuts)) == expected


def test_exhaustive_t4_matches_bruteforce():
    rng = np.random.default_rng(44)
    x = random_symmetric(rng, 8)
    expected = brute_violated(x, 4, 1e-6)
    report = separate_exhaustive(x, 4, 1e-6)
    assert set(cut_rows(report.cuts)) == expected


@pytest.mark.parametrize("t_max, n_max", [(4, 14), (5, 17)])
def test_exhaustive_large_sets_match_bruteforce(t_max, n_max):
    # n_max^(t_max + 1) stays within the enumeration budget; half the
    # matrices perturb a mix of two partition matrices, which satisfies every
    # cut, so that fewer cuts are violated
    rng = np.random.default_rng(50 + t_max)
    for trial in range(4):
        n = int(rng.integers(t_max + 1, n_max + 1)) if trial else n_max
        if trial % 2:
            a, b = (partition_matrix(random_partition(rng, n, 3)) for _ in range(2))
            x = 0.5 * (a + b) + 0.1 * random_symmetric(rng, n)
        else:
            x = random_symmetric(rng, n)
        report = separate_exhaustive(x, t_max, 1e-6)
        assert set(cut_rows(report.cuts)) == brute_violated(x, t_max, 1e-6)
        assert np.abs(violations(report.cuts, x) - report.violations).max(initial=0.0) <= 1e-12


def test_greedy_subset_of_exhaustive():
    rng = np.random.default_rng(45)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        x = random_symmetric(rng, n)
        for t in (2, 3):
            greedy = set(cut_rows(separate_greedy(x, t).cuts))
            full = set(cut_rows(separate_exhaustive(x, t).cuts))
            assert greedy <= full


def test_greedy_soundness_no_incremental_drift():
    rng = np.random.default_rng(46)
    for _ in range(10):
        n = int(rng.integers(5, 15))
        x = random_symmetric(rng, n)
        report = separate_greedy(x, 4, 1e-6)
        assert (report.violations > 1e-6).all()
        assert np.abs(violations(report.cuts, x) - report.violations).max(initial=0.0) < 1e-12


@settings(max_examples=150, deadline=None)
@given(separation_matrices(), st.integers(2, 5), st.sampled_from([1e-6, -np.inf]))
def test_greedy_matches_reference_loop(x, t_max, eps_vio):
    # bit for bit in cuts and violations, in the order the cutting plane
    # adds them; eps_vio = -inf records every set the growth reaches
    fast = separate_greedy(x, t_max, eps_vio)
    slow = reference_greedy(x, t_max, eps_vio)
    fast_order, slow_order = fast.order(), slow.order()
    assert fast.cuts.take(fast_order) == slow.cuts.take(slow_order)
    assert np.array_equal(fast.violations[fast_order], slow.violations[slow_order])


@st.composite
def near_partition_matrices(draw):
    """Partition matrices with symmetric noise of either sign, down to 1e-12,
    so that many pair cuts sit within rounding of zero."""
    n = draw(st.integers(3, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = partition_matrix(random_partition(rng, n, draw(st.integers(1, min(n, 4)))))
    noise = 2.0 * random_symmetric(rng, n) - 1.0
    return x + 10.0 ** -draw(st.integers(2, 12)) * noise


def row_maxima(report: SeparationReport) -> dict:
    """The largest violation per (anchor i, smallest member j of S)."""
    out = {}
    for (i, s), w in zip(cut_rows(report.cuts), report.violations.tolist()):
        out[(i, s[0])] = max(w, out.get((i, s[0]), -np.inf))
    return out


@settings(max_examples=150, deadline=None)
@given(st.one_of(separation_matrices(), near_partition_matrices()),
       st.sampled_from([-np.inf, 0.0, 1e-6]))
def test_pair_greedy_row_maxima_equal_exhaustive_growth(x, eps_vio):
    # at t = 2 both form w_i({j}) + gamma[j, k] with the same operations and
    # fl(w + gamma) is monotone in gamma, so the greedy's argmax extension
    # carries every row's largest violation: its empty report is the proof
    greedy = separate_greedy(x, 2, eps_vio)
    exhaustive = _grow(x, 2, eps_vio, exhaustive=True)
    assert row_maxima(greedy) == row_maxima(exhaustive)


def test_exhaustive_cap_and_order():
    rng = np.random.default_rng(48)
    x = random_symmetric(rng, 10)
    full = separate_exhaustive(x, 2)
    capped = separate_exhaustive(x, 2, cap=5)
    if len(full.cuts) > 5:
        assert len(capped.cuts) == 5
        # most violated first
        assert capped.violations.tolist() == sorted(capped.violations, reverse=True)
        assert capped.violations[0] == max(full.violations)


def test_determinism():
    rng = np.random.default_rng(49)
    x = random_symmetric(rng, 12)
    a = separate_greedy(x, 3)
    b = separate_greedy(x, 3)
    assert a.cuts == b.cuts
    assert np.array_equal(a.violations, b.violations)


def test_exhaustive_budget_guard():
    x = np.zeros((400, 400))
    with pytest.raises(ValueError):
        separate_exhaustive(x, 2)
