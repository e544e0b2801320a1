import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpkmeans
from lpkmeans.core import (
    Partition,
    PointSet,
    is_partition_matrix,
    kmeans_bruteforce,
    kmeans_cost,
    lp_objective,
    pack_matrix,
    packed_index,
    packed_len,
    partition_matrix,
    same_partition,
    squared_distances,
    unpack_matrix,
)
from lpkmeans.generators import GenSpec, generate, reference_nontight_matrix

from conftest import random_partition, random_points

F_KMEANS = 146.0 / 72.0
F_LP = 54.0 / 28.0


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from lpkmeans.<module> import *`
    names = ["lpkmeans"] + [f"lpkmeans.{m.name}" for m in pkgutil.iter_modules(lpkmeans.__path__)]
    assert "lpkmeans.lp_model" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"


# ---------------------------------------------------------------------------
# squared_distances
# ---------------------------------------------------------------------------


def test_five_point_distance_vector(five_point):
    _, _, d = five_point
    iu = np.triu_indices(5, 1)
    expected = np.array([1, 1, 7 / 12, 7 / 12, 1, 7 / 12, 7 / 12, 7 / 12, 7 / 12, 1])
    assert np.abs(d[iu] - expected).max() < 1e-14
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_single_point_distances():
    d = squared_distances(PointSet(np.array([[1.0, 2.0]])))
    assert d.shape == (1, 1) and d[0, 0] == 0.0


def test_three_four_five():
    d = squared_distances(PointSet(np.array([[0.0, 0.0], [3.0, 4.0]])))
    assert d[0, 1] == 25.0


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, np.nan]]))
    with pytest.raises(ValueError):
        PointSet(np.array([[np.inf, 1.0]]))


def full_row_distances(points):
    """Every entry of every row computed, none mirrored: the reference for
    bit identity."""
    coords = points.coords
    n = points.n
    d = np.empty((n, n))
    for i in range(n):
        diff = coords - coords[i]
        d[i] = np.einsum("ij,ij->i", diff, diff)
        d[i, i] = 0.0
    return d


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e6, -1e6]),
    st.booleans(),
)
def test_mirrored_distances_bit_identical_to_full_rows(n, m, seed, offset, duplicates):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(n, m)) + offset
    if duplicates:
        coords[rng.integers(n, size=n // 2)] = coords[rng.integers(n, size=n // 2)]
    points = PointSet(coords)
    assert squared_distances(points).tobytes() == full_row_distances(points).tobytes()


def test_distance_rigid_motion_invariance():
    rng = np.random.default_rng(42)
    for _ in range(10):
        pts = random_points(rng, 20, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        shift = rng.normal(size=4)
        moved = PointSet(pts.coords @ q.T + shift)
        assert np.abs(squared_distances(pts) - squared_distances(moved)).max() < 1e-9


# ---------------------------------------------------------------------------
# partition matrices
# ---------------------------------------------------------------------------


def test_partition_matrix_five_point_example():
    p = Partition(2, np.array([0, 1, 1, 0, 1]))
    x = partition_matrix(p)
    half = [(0, 0), (3, 3), (0, 3)]
    third = [(1, 1), (2, 2), (4, 4), (1, 2), (1, 4), (2, 4)]
    for i, j in half:
        assert x[i, j] == x[j, i] == 0.5
    for i, j in third:
        assert x[i, j] == x[j, i] == pytest.approx(1 / 3)
    assert x[0, 1] == x[0, 2] == x[0, 4] == 0.0
    assert x[3, 1] == x[3, 2] == x[3, 4] == 0.0


def test_partition_matrix_singletons_and_single_cluster():
    assert np.array_equal(partition_matrix(Partition(4, np.arange(4))), np.eye(4))
    x = partition_matrix(Partition(1, np.zeros(3, dtype=int)))
    assert np.all(x == pytest.approx(1 / 3))


def test_empty_cluster_rejected():
    with pytest.raises(ValueError):
        Partition(3, np.array([0, 1, 1, 0]))


def test_random_partition_matrices_are_projections():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, min(6, n) + 1))
        p = random_partition(rng, n, k)
        assert is_partition_matrix(partition_matrix(p), k, tol=1e-12)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


def test_lp_objective_reference_values(five_point):
    _, planted, d = five_point
    xt = reference_nontight_matrix(1)
    assert lp_objective(xt, d) == pytest.approx(F_LP, abs=1e-12)
    assert lp_objective(partition_matrix(planted), d) == pytest.approx(F_KMEANS, abs=1e-12)
    assert lp_objective(np.zeros((5, 5)), d) == 0.0


def test_lp_objective_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_objective(np.zeros((3, 3)), np.zeros((4, 4)))


def test_kmeans_cost_five_point(five_point):
    points, planted, _ = five_point
    assert kmeans_cost(points, planted) == pytest.approx(F_KMEANS, abs=1e-12)


def test_kmeans_cost_singletons_zero():
    rng = np.random.default_rng(2)
    pts = random_points(rng, 6, 3)
    assert kmeans_cost(pts, Partition(6, np.arange(6))) == 0.0


def test_kmeans_cost_matches_matrix_objective_scale():
    # one cluster holding (0) and (2) on the line: the double-sum objective
    # counts each pair twice, so the value is 4, not the plain
    # sum-of-squared-deviations 2
    pts = PointSet(np.array([[0.0], [2.0]]))
    p = Partition(1, np.zeros(2, dtype=int))
    cost = kmeans_cost(pts, p)
    assert cost == pytest.approx(4.0, abs=1e-12)
    assert cost == pytest.approx(lp_objective(partition_matrix(p), squared_distances(pts)))


def test_objective_equivalence_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, min(5, n) + 1))
        pts = random_points(rng, n, int(rng.integers(1, 5)))
        p = random_partition(rng, n, k)
        a = kmeans_cost(pts, p)
        b = lp_objective(partition_matrix(p), squared_distances(pts))
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


# ---------------------------------------------------------------------------
# is_partition_matrix
# ---------------------------------------------------------------------------


def test_is_partition_matrix_reference_cases(five_point):
    _, planted, _ = five_point
    assert is_partition_matrix(partition_matrix(planted), 2, 1e-12)
    assert not is_partition_matrix(reference_nontight_matrix(1), 2, 1e-6)
    assert is_partition_matrix(np.eye(7), 7, 0.0)
    # wrong K fails the trace test
    assert not is_partition_matrix(np.eye(7), 6, 1e-6)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


def test_bruteforce_five_point(five_point):
    points, planted, _ = five_point
    p, cost = kmeans_bruteforce(points, 2)
    assert cost == pytest.approx(F_KMEANS, abs=1e-12)
    assert same_partition(p.assign, planted.assign)


def test_bruteforce_singletons():
    rng = np.random.default_rng(4)
    pts = random_points(rng, 5, 2)
    _, cost = kmeans_bruteforce(pts, 5)
    assert cost == 0.0


def test_bruteforce_reports_the_cost_of_its_partition():
    # three copies of one point and three others: every K = 5 optimum costs
    # 0, and the enumeration's running sums once reported -1.16e-10
    a = [78.186324729742552, -54.584177511149456]
    pts = PointSet(np.array([
        a, a, [41.614665737346584, -155.75698694674583],
        [-187.4250860073316, -49.733158087220332], [26.492152714025895, 135.31397003881588], a,
    ]))
    p, cost = kmeans_bruteforce(pts, 5)
    assert cost == kmeans_cost(pts, p) == 0.0


def test_bruteforce_five_ball_regression():
    # value computed by this oracle and frozen; bracketed by the
    # perturbation bounds around twice 146/72 for n'=2, r=1e-3
    points, _ = generate(GenSpec("five_ball", radius=1e-3, n_prime=2, seed=20240101))
    _, cost = kmeans_bruteforce(points, 2)
    assert 2 * F_KMEANS - 40 * 1e-3 <= cost <= 2 * (F_KMEANS + 1e-2)
    assert cost == pytest.approx(4.056458878517023, abs=1e-9)


def test_bruteforce_matches_general_path():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pts = random_points(rng, 9, 2)
        p2, c2 = kmeans_bruteforce(pts, 2)
        from lpkmeans.core import _bruteforce_general

        a3, c3 = _bruteforce_general(squared_distances(pts), 2)
        assert c2 == pytest.approx(c3, rel=1e-12)
        assert same_partition(p2.assign, a3)


def test_bruteforce_beats_any_partition():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 4))
        pts = random_points(rng, n, 2)
        _, best = kmeans_bruteforce(pts, k)
        for _ in range(10):
            p = random_partition(rng, n, k)
            assert best <= kmeans_cost(pts, p) + 1e-12


def test_bruteforce_guards():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        kmeans_bruteforce(random_points(rng, 30, 2), 2)
    with pytest.raises(ValueError):
        kmeans_bruteforce(random_points(rng, 20, 2), 3)


# ---------------------------------------------------------------------------
# packed layout
# ---------------------------------------------------------------------------


def test_packed_roundtrip():
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 12):
        a = rng.normal(size=(n, n))
        x = a + a.T
        v = pack_matrix(x)
        assert v.size == packed_len(n)
        assert np.array_equal(unpack_matrix(v, n), x)


def test_packed_index_row_major():
    n = 6
    expected = 0
    for i in range(n):
        for j in range(i, n):
            assert packed_index(i, j, n) == expected
            expected += 1
