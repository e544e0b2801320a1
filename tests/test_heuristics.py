import numpy as np
import pytest

from lpkmeans.core import (
    Partition,
    PointSet,
    kmeans_bruteforce,
    kmeans_cost,
    partition_matrix,
    same_partition,
    squared_distances,
    unpack_matrix,
)
from lpkmeans.generators import GenSpec, generate
from lpkmeans.heuristics import (
    LloydConfig,
    extract_support_partition,
    kmeanspp_lloyd,
    round_lp_solution,
    upper_bound_update,
)
from lpkmeans.lp_model import all_cuts, build
from lpkmeans.solver import solve

from conftest import random_partition, random_points

F_KMEANS = 146.0 / 72.0


def test_kmeanspp_singletons_zero_cost():
    rng = np.random.default_rng(51)
    pts = random_points(rng, 6, 2)
    p, cost = kmeanspp_lloyd(pts, 6, LloydConfig(seed=1))
    assert cost == 0.0
    assert p.sizes.tolist() == [1] * 6


def test_kmeanspp_five_point_global(five_point):
    points, _, _ = five_point
    p, cost = kmeanspp_lloyd(points, 2, LloydConfig(restarts=20, seed=7))
    assert cost == pytest.approx(F_KMEANS, abs=1e-12)


def test_kmeanspp_single_cluster():
    rng = np.random.default_rng(52)
    pts = random_points(rng, 10, 3)
    p, cost = kmeanspp_lloyd(pts, 1, LloydConfig(seed=1))
    centroid = pts.coords.mean(axis=0)
    expected = 2.0 * float(((pts.coords - centroid) ** 2).sum())
    assert cost == pytest.approx(expected, rel=1e-12)


def test_kmeanspp_never_beats_bruteforce():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 4))
        pts = random_points(rng, n, 2)
        _, best = kmeans_bruteforce(pts, k)
        _, heur = kmeanspp_lloyd(pts, k, LloydConfig(restarts=5, seed=2))
        assert heur >= best - 1e-12


def test_kmeanspp_cost_is_kmeans_cost():
    rng = np.random.default_rng(54)
    pts = random_points(rng, 12, 2)
    p, cost = kmeanspp_lloyd(pts, 3, LloydConfig(seed=3))
    assert cost == pytest.approx(kmeans_cost(pts, p), rel=1e-12)


def test_kmeanspp_deterministic():
    rng = np.random.default_rng(55)
    pts = random_points(rng, 15, 2)
    a = kmeanspp_lloyd(pts, 3, LloydConfig(seed=9))
    b = kmeanspp_lloyd(pts, 3, LloydConfig(seed=9))
    assert np.array_equal(a[0].assign, b[0].assign) and a[1] == b[1]


def test_kmeanspp_rejects_k_above_n():
    rng = np.random.default_rng(56)
    with pytest.raises(ValueError):
        kmeanspp_lloyd(random_points(rng, 3, 2), 4, LloydConfig())


def test_lloyd_handles_coincident_points():
    pts = PointSet(np.zeros((5, 2)))
    p, cost = kmeanspp_lloyd(pts, 2, LloydConfig(seed=1))
    assert cost == 0.0
    assert p.k == 2 and (p.sizes >= 1).all()


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def test_round_partition_matrix_idempotent():
    rng = np.random.default_rng(57)
    for _ in range(20):
        n = int(rng.integers(4, 20))
        k = int(rng.integers(2, min(5, n) + 1))
        pts = random_points(rng, n, 3)
        p = random_partition(rng, n, k)
        x = partition_matrix(p)
        q, cost = round_lp_solution(x, pts, k, LloydConfig(seed=1))
        assert same_partition(q.assign, p.assign)
        assert cost == pytest.approx(kmeans_cost(pts, p), rel=1e-12)


def test_round_uniform_matrix_single_cluster():
    rng = np.random.default_rng(58)
    pts = random_points(rng, 8, 2)
    x = np.full((8, 8), 1 / 8)
    p, cost = round_lp_solution(x, pts, 1, LloydConfig(seed=1))
    assert p.k == 1
    assert cost == pytest.approx(kmeans_cost(pts, Partition(1, np.zeros(8, dtype=int))))


def test_round_solved_five_point_lp(five_point):
    # the solved relaxation has a triply degenerate second eigenvalue, so the
    # spectral centers depend on the eigensolver's basis; the result must be a
    # valid 2-partition, never better than the true optimum, and stable
    points, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    sol = solve(lp, tol=1e-8)
    x_lb = unpack_matrix(sol.x, 5)
    p1, c1 = round_lp_solution(x_lb, points, 2, LloydConfig(seed=1))
    p2, c2 = round_lp_solution(x_lb, points, 2, LloydConfig(seed=1))
    assert p1.k == 2
    assert c1 >= F_KMEANS - 1e-9
    assert c1 == c2 and np.array_equal(p1.assign, p2.assign)


def test_round_eigenspace_mass_check():
    # top-K reconstruction captures all but the trailing eigenvalue mass
    rng = np.random.default_rng(60)
    for _ in range(10):
        n, k = 12, 3
        p = random_partition(rng, n, k)
        x = partition_matrix(p) + 1e-3 * np.eye(n)
        vals, vecs = np.linalg.eigh(x)
        top = vecs[:, -k:]
        recon = top @ np.diag(vals[-k:]) @ top.T
        residual = np.linalg.norm(x - recon, 2)
        assert residual <= np.abs(vals[:-k]).sum() + 1e-8


# ---------------------------------------------------------------------------
# incumbent update and extraction
# ---------------------------------------------------------------------------


def test_upper_bound_update():
    p = Partition(2, np.array([0, 1]))
    q = Partition(2, np.array([1, 0]))
    assert upper_bound_update((p, 5.0), (q, 4.0)) == (q, 4.0)
    assert upper_bound_update((p, 4.0), (q, 4.0)) == (p, 4.0)
    assert upper_bound_update((p, 3.0), (q, 4.0)) == (p, 3.0)


def test_extract_support_partition():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(3, 25))
        k = int(rng.integers(1, min(6, n) + 1))
        p = random_partition(rng, n, k)
        x = partition_matrix(p)
        noise = 1e-7 * rng.standard_normal((n, n))
        q = extract_support_partition(x + 0.5 * (noise + noise.T))
        assert q is not None
        assert same_partition(q.assign, p.assign)
