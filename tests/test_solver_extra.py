import numpy as np
import pytest

from lpkmeans.core import squared_distances
from lpkmeans.lp_model import all_cuts, build
from lpkmeans.solver import safe_lower_bound, solve

from conftest import random_points
from test_solver import reference_solve


def test_time_limit_status():
    rng = np.random.default_rng(81)
    pts = random_points(rng, 20, 2)
    lp = build(squared_distances(pts), 2, all_cuts(20, 2))
    sol = solve(lp, tol=1e-12, time_limit=0.02)
    assert sol.status in ("time_limit", "optimal_to_tol")
    assert np.isfinite(sol.objective)
    assert np.all(sol.z <= 0.0)


def test_warm_start_converges_faster(five_point):
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    cold = solve(lp, tol=1e-8)
    warm = solve(lp, tol=1e-8, warm=(cold.x, cold.y, cold.z))
    assert warm.status == "optimal_to_tol"
    assert warm.iterations <= cold.iterations
    assert abs(warm.objective - cold.objective) < 1e-7


def test_unscaled_path_agrees(five_point):
    # the equilibrated solve against PDHG on the unscaled data, which only
    # the reference loop still runs
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    a = solve(lp, tol=1e-8)
    b, _ = reference_solve(lp, tol=1e-8, scaling=False)
    assert abs(a.objective - b.objective) < 1e-6


def test_safe_bound_tracks_solution_quality(five_point):
    # tightening the solve can only improve how close the bound sits to the
    # optimum, and it stays valid at every stage
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    opt = 54.0 / 28.0
    gaps = []
    for tol in (1e-1, 1e-3, 1e-6, 1e-8):
        sol = solve(lp, tol=tol)
        bound = safe_lower_bound(lp, sol)
        assert bound <= opt + 1e-9
        gaps.append(opt - bound)
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] < 1e-6


def test_matches_reference_solver_with_triples():
    # rows with |S| = 3 carry seven nonzeros; make sure assembly and solver
    # agree with an independent simplex solve on the richer relaxation
    from scipy.optimize import linprog

    rng = np.random.default_rng(82)
    pts = random_points(rng, 10, 2)
    d = squared_distances(pts)
    objectives = []
    for t in (2, 3):
        lp = build(d, 3, all_cuts(10, t))
        res = linprog(
            lp.c, A_ub=lp.q, b_ub=np.zeros(lp.q.shape[0]),
            A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, 1), method="highs",
        )
        assert res.status == 0
        sol = solve(lp, tol=1e-8)
        assert abs(sol.objective - res.fun) < 1e-6 * (1 + abs(res.fun))
        objectives.append(sol.objective)
    # a larger family can only strengthen the relaxation
    assert objectives[1] >= objectives[0] - 1e-7
