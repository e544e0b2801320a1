import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkmeans.core import (
    PointSet,
    kmeans_cost,
    same_partition,
    squared_distances,
)
from lpkmeans.cutplane import SolveConfig, _age_cuts, gap, solve_kmeans_lp
from lpkmeans.generators import GenSpec, generate
from lpkmeans.lp_model import CutPool, all_cuts, build, violation
from lpkmeans.solver import solve

from conftest import random_points

F_KMEANS = 146.0 / 72.0
F_LP = 54.0 / 28.0
FIVE_POINT_GAP = (F_KMEANS - F_LP) / F_KMEANS  # 0.04892367...


def test_gap_values():
    assert gap(10.0, 9.0) == pytest.approx(0.1)
    assert gap(3.5, 3.5) == 0.0
    assert gap(F_KMEANS, F_LP) == pytest.approx(0.04892367906066538, abs=1e-12)
    assert gap(0.0, 0.0) == 0.0
    assert gap(0.0, -1e-13) == 0.0
    assert gap(0.0, -1.0) == np.inf


def drop_slack_cuts(pool: CutPool, x: np.ndarray, eps_act: float) -> CutPool:
    """The aging step with patience one: every slack cut leaves at once."""
    keep, ages = _age_cuts(pool, x, eps_act, np.zeros(len(pool), dtype=np.int64), patience=1)
    assert not ages.any()
    return pool.take(keep)


def test_drop_slack_cuts(five_point):
    _, planted, d = five_point
    pool = CutPool(all_cuts(5, 2))
    lp = build(d, 2, pool)
    sol = solve(lp, tol=1e-8)
    from lpkmeans.core import unpack_matrix

    x = unpack_matrix(sol.x, 5)
    kept = drop_slack_cuts(pool, x, 1e-6)
    expected = {(c.i, c.s) for c in pool if abs(violation(x, c)) <= 1e-6}
    assert {(c.i, c.s) for c in kept} == expected
    assert 0 < len(kept) < len(pool)
    # boundary behaviors
    assert len(drop_slack_cuts(pool, x, 1e9)) == len(pool)
    none_tight = drop_slack_cuts(pool, np.eye(5), 1e-9)
    assert all(abs(violation(np.eye(5), c)) <= 1e-9 for c in none_tight)


def test_age_cuts_patience():
    x = np.full((3, 3), 1 / 3)  # every pair cut is tight
    pool = CutPool(all_cuts(3, 2))
    y = x.copy()
    y[0, 0] = 0.5  # only the cut anchored at 0, row 0, turns slack
    ages = np.array([0, 0, 5])
    keep, kept_ages = _age_cuts(pool, y, 1e-9, ages, patience=2)
    assert keep.tolist() == [True, True, True]
    assert kept_ages.tolist() == [1, 0, 0]  # a tight cut's age resets
    keep, kept_ages = _age_cuts(pool, y, 1e-9, np.array([1, 0, 0]), patience=2)
    assert keep.tolist() == [False, True, True]
    assert kept_ages.tolist() == [0, 0]


def test_five_point_run(five_point):
    points, _, _ = five_point
    p, trace, tight = solve_kmeans_lp(points, SolveConfig(k=2, seed=1))
    assert trace.status == "no_more_cuts"
    assert not tight
    assert trace.f_ub == pytest.approx(F_KMEANS, abs=1e-9)
    assert trace.f_lb == pytest.approx(F_LP, abs=1e-6)
    assert trace.r_g == pytest.approx(FIVE_POINT_GAP, abs=1e-4)
    assert kmeans_cost(points, p) == pytest.approx(F_KMEANS, abs=1e-9)
    # the loop proved optimality only up to the non-tightness gap
    assert trace.r_g > 1e-4
    assert any(r.exhaustive for r in trace.rounds)


def test_singletons_one_round_tight():
    pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    p, trace, tight = solve_kmeans_lp(pts, SolveConfig(k=4, seed=1))
    assert trace.status == "converged"
    assert tight
    assert trace.f_ub == 0.0
    assert p.sizes.tolist() == [1, 1, 1, 1]


def test_monotone_traces_and_tightness(five_point):
    points, _, _ = five_point
    _, trace, _ = solve_kmeans_lp(points, SolveConfig(k=2, seed=3))
    lbs = [r.f_lb for r in trace.rounds]
    ubs = [r.f_ub for r in trace.rounds]
    assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(ubs, ubs[1:]))


def test_ssm_tight_recovery():
    pts, planted = generate(GenSpec("ssm", n=60, m=2, delta=3.0, r1=1.0, seed=13))
    p, trace, tight = solve_kmeans_lp(pts, SolveConfig(k=2, seed=13))
    assert trace.status == "converged"
    assert tight
    assert same_partition(p.assign, planted.assign)
    d = squared_distances(pts)
    assert trace.f_lb <= kmeans_cost(pts, p) + 1e-6 * (1 + trace.f_ub)
    assert trace.r_g <= 1e-4


def test_cutting_plane_matches_direct_solve():
    rng = np.random.default_rng(14)
    for trial in range(3):
        n = int(rng.integers(10, 15))
        k = int(rng.integers(2, 4))
        pts = random_points(rng, n, 2)
        cfg = SolveConfig(k=k, eps_opt=1e-9, seed=trial, max_rounds=60)
        _, trace, _ = solve_kmeans_lp(pts, cfg)
        assert trace.status in ("converged", "no_more_cuts")
        d = squared_distances(pts)
        lp = build(d, k, CutPool(all_cuts(n, k)))
        ref = solve(lp, tol=1e-9)
        assert abs(trace.f_lb - ref.objective) <= 1e-5 * (1 + abs(ref.objective))


@pytest.mark.parametrize("coords", [
    np.vstack([np.zeros((5, 2)), np.ones((5, 2))]),  # two groups of 5 identical points
    np.full((10, 2), 3.0),  # all points identical
], ids=["two-groups", "all-identical"])
def test_zero_cost_bounds_clamped(coords):
    p, trace, _ = solve_kmeans_lp(PointSet(coords), SolveConfig(k=2, seed=1))
    assert trace.f_ub == 0.0 and kmeans_cost(PointSet(coords), p) == 0.0
    # a PDHG dual bound may dip just below 0; the reported bound may not
    assert trace.f_lb == 0.0 and trace.r_g == 0.0
    assert all(r.f_lb == 0.0 and r.r_g == 0.0 for r in trace.rounds)
    # the clamped bound closes the gap in round 1: only the confirm solve follows
    assert trace.status == "converged"
    assert not any(r.exhaustive for r in trace.rounds)


# Uniform points whose K = 3 solve mixes |S| = 2 and |S| = 3 cuts in one pool,
# through LP assembly, cut aging and the warm-start dual remap.  The rounds
# run at a working tolerance of at most 1e-4.  The assignment and f_ub are
# those of every solver since the per-cut object pool; f_lb is the safe bound
# of the final duals, so it pins the PDHG iterates too (adaptive steps, with
# the step and primal weight carried across rounds).
K3_MIXED = {
    "escalate": (dict(lp_tol_start=1e-4), 1.4836915987580173, 1.483691598992277),
    "t_start3": (dict(t_start=3, lp_tol_start=1e-4), 1.4836915762991896, 1.483691598992277),
}
K3_ASSIGN = [2, 2, 0, 0, 0, 2, 0, 1, 1, 2, 1, 1, 1, 1, 1, 2, 0, 2]


def k3_mixed_solve(**overrides):
    points = PointSet(np.random.default_rng(110).uniform(size=(18, 2)))
    p, trace, tight = solve_kmeans_lp(points, SolveConfig(k=3, seed=10, keep_pools=True, **overrides))
    assert trace.status == "converged" and tight
    assert p.assign.tolist() == K3_ASSIGN
    mixed = [r for r in trace.rounds if {len(c.s) for c in r.pool_snapshot} == {2, 3}]
    assert len(mixed) >= 2
    assert trace.rounds[-1].t_max == 3
    return trace


@pytest.mark.parametrize("case", sorted(K3_MIXED))
def test_mixed_size_pool_k3_regression(case):
    overrides, f_lb, f_ub = K3_MIXED[case]
    trace = k3_mixed_solve(**overrides)
    assert trace.f_lb == pytest.approx(f_lb, rel=1e-12)
    assert trace.f_ub == pytest.approx(f_ub, rel=1e-12)


def test_mixed_size_pool_k3_default_config():
    # the default config's looser early rounds reach another safe bound
    # below the same f_ub
    trace = k3_mixed_solve()
    assert trace.f_ub == pytest.approx(K3_MIXED["escalate"][2], rel=1e-12)
    assert trace.f_lb <= trace.f_ub


# Small instances on both sides of tightness, K = 2 and 3: the working
# tolerance changes the rounds, never the answer.
LOOSE_START_CORPUS = {
    **{f"ssm-n40-d{delta}-k2": (dict(model="ssm", n=40, m=2, delta=delta, seed=1), 2)
       for delta in (1.8, 2.2, 3.0)},
    "ssm-n30-d2.5-k3": (dict(model="ssm", n=30, m=2, delta=2.5, seed=1), 3),
    "five_ball-np6-k2": (dict(model="five_ball", m=3, radius=0.1, n_prime=6, seed=1), 2),
    "five_ball-np6-k3": (dict(model="five_ball", m=3, radius=0.1, n_prime=6, seed=1), 3),
}


@pytest.mark.parametrize("case", sorted(LOOSE_START_CORPUS))
def test_loose_start_same_answers(case):
    spec, k = LOOSE_START_CORPUS[case]
    points, _ = generate(GenSpec(**spec))
    default = SolveConfig(k=k, seed=1)
    p, trace, tight = solve_kmeans_lp(points, default)
    p_ref, ref, tight_ref = solve_kmeans_lp(points, SolveConfig(k=k, seed=1, lp_tol_start=1e-4))
    assert trace.status == ref.status
    assert tight == tight_ref
    assert same_partition(p.assign, p_ref.assign)
    assert trace.f_ub == pytest.approx(ref.f_ub, rel=1e-9, abs=1e-12)
    assert trace.f_lb <= trace.f_ub
    assert trace.rounds[0].lp_tol == default.lp_tol_start == 1e-1
    if trace.status == "converged":
        assert trace.rounds[-1].lp_tol == default.lp_tol_floor


@st.composite
def small_instances(draw):
    if draw(st.booleans()):
        n = 2 * draw(st.integers(5, 15))
        spec = GenSpec(model="ssm", n=n, m=2, delta=draw(st.sampled_from([1.8, 2.2, 3.0])),
                       seed=draw(st.integers(0, 2**16)))
    else:
        spec = GenSpec(model="five_ball", m=3, radius=draw(st.sampled_from([0.05, 0.1, 0.2])),
                       n_prime=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**16)))
    return generate(spec)[0], draw(st.sampled_from([2, 3]))


@settings(max_examples=12, deadline=None)
@given(small_instances(), st.integers(0, 2**16))
def test_default_tolerance_path(instance, seed):
    # the default config: round 1 at 0.1, later rounds at no more than
    # 0.1 r_g of the round before, and every final decision at the floor
    points, k = instance
    cfg = SolveConfig(k=k, seed=seed)
    _, trace, _ = solve_kmeans_lp(points, cfg)
    assert trace.rounds[0].lp_tol == 0.1
    for prev, cur in zip(trace.rounds, trace.rounds[1:]):
        assert cur.lp_tol <= max(cfg.lp_tol_floor, 0.1 * prev.r_g)
    if trace.status in ("converged", "no_more_cuts"):
        assert trace.rounds[-1].lp_tol == cfg.lp_tol_floor
    assert trace.f_lb <= trace.f_ub


def test_warm_starts_carry_step_and_primal_weight(monkeypatch):
    # every solve after the first starts from the previous solve's step and
    # primal weight: after new cuts and on the confirm re-solve alike
    import lpkmeans.cutplane as cutplane

    calls = []

    def recording_solve(lp, **kwargs):
        sol = solve(lp, **kwargs)
        calls.append((kwargs, sol))
        return sol

    monkeypatch.setattr(cutplane, "solve", recording_solve)
    points = PointSet(np.random.default_rng(110).uniform(size=(18, 2)))
    _, trace, _ = solve_kmeans_lp(points, SolveConfig(k=3, seed=10))
    assert trace.status == "converged" and len(calls) == trace.n_rounds >= 3
    assert calls[0][0]["step"] is None and calls[0][0]["primal_weight"] is None
    for (kwargs, _), (_, prev) in zip(calls[1:], calls):
        assert kwargs["warm"] is not None
        assert kwargs["step"] == prev.step and kwargs["primal_weight"] == prev.primal_weight


def test_keep_pools_snapshots(five_point):
    points, _, _ = five_point
    _, trace, _ = solve_kmeans_lp(points, SolveConfig(k=2, seed=1, keep_pools=True))
    assert all(r.pool_snapshot is not None for r in trace.rounds)
    assert all(len(r.pool_snapshot) == r.pool_size for r in trace.rounds)


def test_max_rounds_reported(five_point):
    points, _, _ = five_point
    _, trace, tight = solve_kmeans_lp(points, SolveConfig(k=2, seed=1, max_rounds=1))
    assert trace.status == "max_rounds"
    assert trace.n_rounds == 1
    assert not tight


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(k=2, eps_opt=0.0)
    with pytest.raises(ValueError):
        SolveConfig(k=3, t_start=4)
    with pytest.raises(ValueError):
        SolveConfig(k=2, max_rounds=0)


def test_k_out_of_range(five_point):
    points, _, _ = five_point
    with pytest.raises(ValueError):
        solve_kmeans_lp(points, SolveConfig(k=6))
