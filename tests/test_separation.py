import itertools

import numpy as np
import pytest

from lpkmeans.core import partition_matrix
from lpkmeans.generators import reference_nontight_matrix
from lpkmeans.separation import separate_exhaustive, separate_greedy

from conftest import cut_rows, random_partition


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
        assert np.abs(report.cuts.violations(x) - report.violations).max(initial=0.0) < 1e-12


def test_greedy_general_path_agrees_with_pair_path():
    # t_max = 2 is served by a vectorized branch; it must reproduce the
    # generic growth loop exactly
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        x = random_symmetric(rng, n)
        fast = separate_greedy(x, 2)
        slow = set()
        diag = np.diag(x)
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                cands = [k for k in range(j + 1, n) if k != i]
                if not cands:
                    continue
                gammas = [x[i, k] - x[j, k] for k in cands]
                best = int(np.argmax(gammas))
                w = x[i, j] - diag[i] + gammas[best]
                if w > 1e-6:
                    slow.add((i, (j, cands[best])))
        assert set(cut_rows(fast.cuts)) == slow


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
