import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import lpkmeans.cutplane as cutplane
from lpkmeans.certify import proximity_check
from lpkmeans.core import (
    PointSet,
    kmeans_cost,
    pack_matrix,
    same_partition,
    squared_distances,
    unpack_matrix,
)
from lpkmeans.cutplane import SolveConfig, _age_cuts, gap, solve_kmeans_lp
from lpkmeans.generators import GenSpec, generate
from lpkmeans.lp_model import CutPool, all_cuts, build
from lpkmeans.separation import separate_greedy
from lpkmeans.solver import solve

from conftest import cut_rows, random_points, violations

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


def drop_slack_cuts(pool: CutPool, lp, x: np.ndarray, eps_act: float) -> CutPool:
    """The aging step with patience one, on the slacks Q x the loop reads:
    every slack cut leaves at once."""
    keep, ages = _age_cuts(lp.q @ pack_matrix(x), eps_act, np.zeros(len(pool), dtype=np.int64),
                           patience=1)
    assert not ages.any()
    return pool.take(keep)


def test_drop_slack_cuts(five_point):
    _, planted, d = five_point
    pool = all_cuts(5, 2)
    lp = build(d, 2, pool)
    sol = solve(lp, tol=1e-8)
    x = unpack_matrix(sol.x, 5)
    # the slacks the loop reads sum in column order: a few ulps from the evaluator
    assert np.abs(lp.q @ sol.x - violations(pool, x)).max() <= 1e-14
    kept = drop_slack_cuts(pool, lp, x, 1e-6)
    i, j, k = pool.i, pool.s[:, 0], pool.s[:, 1]
    w = x[i, j] + x[i, k] - x[i, i] - x[j, k]  # every cut of the pool is a pair cut
    assert kept == pool.take(np.abs(w) <= 1e-6)
    assert 0 < len(kept) < len(pool)
    # boundary behaviors
    assert len(drop_slack_cuts(pool, lp, x, 1e9)) == len(pool)
    none_tight = drop_slack_cuts(pool, lp, np.eye(5), 1e-9)
    assert (np.abs(violations(none_tight, np.eye(5))) <= 1e-9).all()


def test_age_cuts_patience():
    x = np.full((3, 3), 1 / 3)  # every pair cut is tight
    pool = all_cuts(3, 2)
    y = x.copy()
    y[0, 0] = 0.5  # only the cut anchored at 0, row 0, turns slack
    w = build(np.zeros((3, 3)), 2, pool).q @ pack_matrix(y)
    assert np.array_equal(w, violations(pool, y))
    ages = np.array([0, 0, 5])
    keep, kept_ages = _age_cuts(w, 1e-9, ages, patience=2)
    assert keep.tolist() == [True, True, True]
    assert kept_ages.tolist() == [1, 0, 0]  # a tight cut's age resets
    keep, kept_ages = _age_cuts(w, 1e-9, np.array([1, 0, 0]), patience=2)
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


def test_k2_solve_never_calls_the_exhaustive_separation(five_point, monkeypatch):
    # at t = 2 the greedy's empty report at the floor tolerance is the proof,
    # so the proof round needs no enumeration and no enumeration budget
    def refuse(*args, **kwargs):
        raise AssertionError("exhaustive separation in a K = 2 solve")

    monkeypatch.setattr(cutplane, "separate_exhaustive", refuse)
    points, _, _ = five_point
    _, trace, tight = solve_kmeans_lp(points, SolveConfig(k=2, seed=1))
    assert trace.status == "no_more_cuts" and not tight
    assert trace.rounds[-1].exhaustive and trace.rounds[-1].violated_found == 0
    assert trace.rounds[-1].lp_tol == cutplane._LP_TOL_FLOOR


def test_k2_certified_solve_builds_no_lp(monkeypatch):
    # the pairwise check certifies the Lloyd seed: no LP is built or solved,
    # and the bounds are the seed's cost and its rounding-safe LP value
    def refuse(*args, **kwargs):
        raise AssertionError("LP work in a certified solve")

    monkeypatch.setattr(cutplane, "build", refuse)
    monkeypatch.setattr(cutplane, "solve", refuse)
    points, _ = generate(GenSpec("ssm", n=40, m=2, delta=3.0, seed=1))
    p, trace, tight = solve_kmeans_lp(points, SolveConfig(k=2, seed=1))
    assert trace.rounds == [] and trace.status == "converged"
    assert tight and trace.tight and trace.certified
    assert trace.f_ub == kmeans_cost(points, p)
    assert 0.0 < trace.f_lb <= trace.f_ub
    assert trace.r_g <= 1e-12


class _LpStarted(Exception):
    pass


@st.composite
def k2_draws(draw):
    """n in [4, 14] points in R^m, m in [1, 3]: ssm / sbm draws with a
    smaller cluster down to one point (r1 < 1) and their planted partition;
    five_ball draws (n = 5 or 10, m = 3), on which the relaxation is not
    tight; or Gaussian points, two blobs at a random distance with some
    points repeated (all of them at one spot, at the extreme), and no
    partition."""
    n = draw(st.integers(4, 14))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    model = draw(st.sampled_from(["ssm", "sbm", "five_ball", "gauss"]))
    if model == "five_ball":
        return generate(GenSpec(model, m=3, radius=draw(st.floats(0.0, 0.2)),
                                n_prime=draw(st.integers(1, 2)), seed=seed))
    if model != "gauss":
        c1 = draw(st.integers(1, (n - 1) // 2))
        return generate(GenSpec(model, n=n, m=m, delta=draw(st.floats(1.5, 6.0)),
                                r1=2 * c1 / n, seed=seed))
    rng = np.random.default_rng(seed)
    spots = rng.normal(size=(n, m))
    spots[: draw(st.integers(1, n - 1)), 0] += draw(st.floats(0.0, 8.0))
    return PointSet(spots[rng.integers(draw(st.integers(1, n)), size=n)]), None


def highs_optimum(d: np.ndarray) -> float:
    """The optimum of the K = 2 relaxation with every pair cut, by HiGHS.
    Its tolerances are absolute, so d is first scaled by the power of two
    that brings its largest entry into [1, 2), which is exact both ways."""
    scale = math.ldexp(1.0, 1 - math.frexp(d.max())[1]) if d.max() > 0.0 else 1.0
    lp = build(d * scale, 2, all_cuts(d.shape[0], 2))
    res = linprog(lp.c, A_ub=lp.q.toarray(), b_ub=np.zeros(lp.q.shape[0]),
                  A_eq=lp.a_eq.toarray(), b_eq=lp.b_eq, bounds=(0, 1), method="highs")
    assert res.status == 0, res.message
    return float(res.fun) / scale


def exact_lp_value(d: np.ndarray, assign: np.ndarray) -> Fraction:
    """The LP value of a partition matrix, sum of d_ij / |C| over the
    within-cluster pairs, in exact arithmetic on the float d."""
    total = Fraction(0)
    for label in np.unique(assign):
        members = np.flatnonzero(assign == label)
        total += sum(Fraction(v) for v in d[np.ix_(members, members)].ravel()) / members.size
    return total


@settings(max_examples=300, deadline=None)
@given(k2_draws())
def test_pairwise_check_sound_against_highs(draw):
    # whenever the check certifies a partition, planted or the solve's Lloyd
    # seed, the relaxation's optimum is that partition's LP value, and the
    # certified solve's bounds enclose it; a solve the check does not
    # certify is stopped where its LP work would begin
    points, planted = draw
    d = squared_distances(points)
    certified = []
    if planted is not None:
        rep = proximity_check(d, planted)
        if rep.verdict == "holds_strict":
            certified.append(rep)
    with mock.patch.object(cutplane, "active_cuts", side_effect=_LpStarted):
        try:
            p, trace, tight = solve_kmeans_lp(points, SolveConfig(k=2))
        except _LpStarted:
            trace = None
    if trace is not None:
        assert trace.certified and tight and trace.status == "converged" and not trace.rounds
        rep = proximity_check(d, p)
        assert rep.verdict == "holds_strict"
        certified.append(rep)
    if not certified:
        return
    optimum = highs_optimum(d)
    for rep in certified:
        value = math.fsum(rep.stats.d_in)
        assert abs(optimum - value) <= 1e-9 * value
    if trace is not None:
        # HiGHS's own optimum is good to its tolerances only; the bounds must
        # enclose the exact optimum, the certified partition's exact LP value
        exact = exact_lp_value(d, p.assign)
        assert Fraction(trace.f_lb) <= exact <= Fraction(trace.f_ub) * (1 + Fraction(1e-12))


def test_singletons_one_round_tight():
    pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    p, trace, tight = solve_kmeans_lp(pts, SolveConfig(k=4, seed=1))
    assert trace.status == "converged"
    assert tight
    assert trace.f_ub == 0.0
    assert p.sizes.tolist() == [1, 1, 1, 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
@example(6, 1)  # y.b - r.ub once read 2.8e-14 here, above f_ub = 0
def test_k_equals_n_bounds_hold_under_rounding(n, seed):
    # the optimum is 0 and the duals' y.b and r.ub cancel: no safe bound
    # may come out positive
    points = PointSet(np.random.default_rng(seed).normal(size=(n, 2)))
    _, trace, tight = solve_kmeans_lp(points, SolveConfig(k=n))
    assert tight and trace.status == "converged"
    assert trace.f_lb == 0.0 <= trace.f_ub
    assert all(r.safe_bound <= 0.0 for r in trace.rounds)


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
        lp = build(d, k, all_cuts(n, k))
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


def replay_schedule_rule(trace, eps_opt: float, start: float, floor: float) -> list[float]:
    """The working tolerance of every round under the rule the running
    minimum replaced, replayed from the round records: a schedule
    min(start, max(floor, 0.1 r_g)) under a ceiling that fell tenfold on a
    stalled bound, and a forced floor for the re-solve of an unchanged pool
    (the confirm solve, and the one after a loose round found no cut)."""

    def schedule(r_g):
        if not np.isfinite(r_g):
            return start
        return float(min(start, max(floor, 0.1 * r_g)))

    tols = []
    forced, ceiling, r_g, f_lb = None, start, np.inf, 0.0
    for rec in trace.rounds:
        lp_tol = forced if forced is not None else min(ceiling, schedule(r_g))
        ceiling = min(ceiling, lp_tol)
        forced = None
        tols.append(lp_tol)
        stalled = rec.safe_bound <= f_lb + 1e-7 * (1.0 + abs(f_lb))
        f_lb, r_g = rec.f_lb, rec.r_g
        if rec.r_g <= eps_opt:
            forced = floor
        elif rec.violated_found == 0:
            forced = ceiling = floor
        elif stalled or rec.cuts_added == 0:
            ceiling = max(floor, 0.1 * ceiling)
    return tols


def assert_replays_schedule_rule(trace, cfg, start):
    recorded = [r.lp_tol for r in trace.rounds]
    assert all(type(t) is float for t in recorded)
    assert recorded == replay_schedule_rule(trace, cfg.eps_opt, start, cutplane._LP_TOL_FLOOR)


# Uniform points whose K = 3 solve mixes |S| = 2 and |S| = 3 cuts in one pool,
# through LP assembly, cut aging and the warm-start dual remap.  The rounds
# run at a working tolerance of at most 1e-4.  The assignment and f_ub are
# those of every solver since the per-cut object pool; f_lb is the safe bound
# of the final duals, so it pins the PDHG iterates too (adaptive steps, with
# the step and primal weight carried across rounds).
K3_MIXED = {
    "escalate": (1e-4, 1.4836915989460757, 1.483691598992277),
}
K3_ASSIGN = [2, 2, 0, 0, 0, 2, 0, 1, 1, 2, 1, 1, 1, 1, 1, 2, 0, 2]


def k3_mixed_solve(monkeypatch):
    pools = []  # the pool of every round's LP

    def recording_build(d, k, pool, base=None, kept=None):
        pools.append(pool)
        return build(d, k, pool, base=base, kept=kept)

    monkeypatch.setattr(cutplane, "build", recording_build)
    points = PointSet(np.random.default_rng(110).uniform(size=(18, 2)))
    cfg = SolveConfig(k=3, seed=10)
    p, trace, tight = solve_kmeans_lp(points, cfg)
    assert trace.status == "converged" and tight
    assert p.assign.tolist() == K3_ASSIGN
    assert [len(pool) for pool in pools] == [r.pool_size for r in trace.rounds]
    mixed = [pool for pool in pools if {len(s) for _, s in cut_rows(pool)} == {2, 3}]
    assert len(mixed) >= 2
    assert trace.rounds[-1].t_max == 3
    assert_replays_schedule_rule(trace, cfg, cutplane._LP_TOL_START)
    return trace


def test_round_phases_sum_within_total(monkeypatch):
    # every phase has its own clock: seeding, then per round cut-row
    # assembly, PDHG, rounding, separation, and aging with the pool merge;
    # the clocks never overlap, so they add up to at most the whole
    trace = k3_mixed_solve(monkeypatch)
    phases = [trace.time_init]
    for r in trace.rounds:
        phases += [r.time_build, r.time_solve, r.time_round, r.time_separate, r.time_drop]
    assert all(t >= 0.0 for t in phases)
    assert sum(phases) <= trace.total_time
    assert all((r.time_drop > 0.0) == (r.violated_found > 0) for r in trace.rounds)


@pytest.mark.parametrize("case", sorted(K3_MIXED))
def test_mixed_size_pool_k3_regression(case, monkeypatch):
    start, f_lb, f_ub = K3_MIXED[case]
    monkeypatch.setattr(cutplane, "_LP_TOL_START", start)
    trace = k3_mixed_solve(monkeypatch)
    assert trace.f_lb == pytest.approx(f_lb, rel=1e-12)
    assert trace.f_ub == pytest.approx(f_ub, rel=1e-12)


def test_mixed_size_pool_k3_default_config(monkeypatch):
    # the default config's looser early rounds reach another safe bound
    # below the same f_ub
    trace = k3_mixed_solve(monkeypatch)
    assert trace.f_ub == pytest.approx(K3_MIXED["escalate"][2], rel=1e-12)
    assert trace.f_lb <= trace.f_ub


# Small instances on both sides of tightness, K = 2 and 3: the working
# tolerance changes the rounds, never the answer.  The K = 2 seeds all fail
# the pairwise check (at delta 3.0 it certifies the seed and no LP is solved).
LOOSE_START_CORPUS = {
    **{f"ssm-n40-d{delta}-k2": (dict(model="ssm", n=40, m=2, delta=delta, seed=1), 2)
       for delta in (1.8, 2.2, 2.6)},
    "ssm-n30-d2.5-k3": (dict(model="ssm", n=30, m=2, delta=2.5, seed=1), 3),
    "five_ball-np6-k2": (dict(model="five_ball", m=3, radius=0.1, n_prime=6, seed=1), 2),
    "five_ball-np6-k3": (dict(model="five_ball", m=3, radius=0.1, n_prime=6, seed=1), 3),
}


@pytest.mark.parametrize("case", sorted(LOOSE_START_CORPUS))
def test_loose_start_same_answers(case, monkeypatch):
    spec, k = LOOSE_START_CORPUS[case]
    points, _ = generate(GenSpec(**spec))
    cfg = SolveConfig(k=k, seed=1)
    p, trace, tight = solve_kmeans_lp(points, cfg)
    assert trace.rounds[0].lp_tol == cutplane._LP_TOL_START == 1e-1
    monkeypatch.setattr(cutplane, "_LP_TOL_START", 1e-4)
    p_ref, ref, tight_ref = solve_kmeans_lp(points, cfg)
    assert ref.rounds[0].lp_tol == 1e-4
    assert trace.status == ref.status
    assert tight == tight_ref
    assert same_partition(p.assign, p_ref.assign)
    assert trace.f_ub == pytest.approx(ref.f_ub, rel=1e-9, abs=1e-12)
    assert trace.f_lb <= trace.f_ub
    if trace.status == "converged":
        assert trace.rounds[-1].lp_tol == cutplane._LP_TOL_FLOOR


@st.composite
def small_instances(draw, ks=(2, 3)):
    if draw(st.booleans()):
        n = 2 * draw(st.integers(5, 15))
        spec = GenSpec(model="ssm", n=n, m=2, delta=draw(st.sampled_from([1.8, 2.2, 3.0])),
                       seed=draw(st.integers(0, 2**16)))
    else:
        spec = GenSpec(model="five_ball", m=3, radius=draw(st.sampled_from([0.05, 0.1, 0.2])),
                       n_prime=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**16)))
    return generate(spec)[0], draw(st.sampled_from(ks))


K4_REPRODUCER = (PointSet(np.random.default_rng(4).uniform(size=(12, 2))), 4)


@settings(max_examples=12, deadline=None)
@given(small_instances(ks=(2, 3, 4)), st.integers(0, 2**16))
@example(K4_REPRODUCER, 4)
def test_default_tolerance_path(instance, seed):
    # the default config: round 1 at 0.1, later rounds at no more than
    # 0.1 r_g of the round before, and every final decision at the floor;
    # "no more cuts" is a proof, an exhaustive separation at the floor
    # (a K = 2 seed that the pairwise check certifies solves no LP at all)
    points, k = instance
    cfg = SolveConfig(k=k, seed=seed)
    _, trace, _ = solve_kmeans_lp(points, cfg)
    floor = cutplane._LP_TOL_FLOOR
    if trace.certified:
        assert k == 2 and not trace.rounds and trace.status == "converged" and trace.tight
    else:
        assert trace.rounds[0].lp_tol == 0.1
    for prev, cur in zip(trace.rounds, trace.rounds[1:]):
        assert cur.lp_tol <= max(floor, 0.1 * prev.r_g)
    if trace.status in ("converged", "no_more_cuts") and not trace.certified:
        assert trace.rounds[-1].lp_tol == floor
    if trace.status == "no_more_cuts":
        assert trace.rounds[-1].exhaustive
    assert trace.f_lb <= trace.f_ub


@settings(max_examples=10, deadline=None)
@given(small_instances(), st.integers(0, 2**16))
def test_tolerance_replays_schedule_rule(instance, seed):
    # the running minimum gives, round by round, the tolerance of the
    # schedule, ceiling and forced floor it replaced
    points, k = instance
    cfg = SolveConfig(k=k, seed=seed)
    _, trace, _ = solve_kmeans_lp(points, cfg)
    assert_replays_schedule_rule(trace, cfg, cutplane._LP_TOL_START)


def test_k4_escalates_to_the_proof_before_stopping():
    # no pair or triple cut is violated at the loose round-1 solution: the
    # greedy escalates to |S| = 4 and the pool is re-solved at the floor,
    # rather than stopping at "no more cuts" with no exhaustive proof
    points, k = K4_REPRODUCER
    _, trace, tight = solve_kmeans_lp(points, SolveConfig(k=k, seed=4))
    assert trace.status == "converged" and tight
    assert trace.r_g <= 1e-4
    assert trace.rounds[0].lp_tol == 0.1
    assert trace.rounds[-1].lp_tol == cutplane._LP_TOL_FLOOR
    assert trace.rounds[-1].t_max == 4


def test_round_records_the_set_size_it_separated_at(monkeypatch):
    # round 1 starts at |S| = 2 and its greedy escalates within the round to
    # |S| = 4; the record holds the size of the last greedy call
    points, k = K4_REPRODUCER
    calls = []

    def recording_greedy(x, t_max, eps_vio):
        calls.append(t_max)
        return separate_greedy(x, t_max, eps_vio)

    monkeypatch.setattr(cutplane, "separate_greedy", recording_greedy)
    _, trace, _ = solve_kmeans_lp(points, SolveConfig(k=k, seed=4))
    assert calls[:3] == [2, 3, 4]
    assert trace.rounds[0].t_max == 4


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


def test_max_rounds_reported(five_point):
    points, _, _ = five_point
    _, trace, tight = solve_kmeans_lp(points, SolveConfig(k=2, seed=1, max_rounds=1))
    assert trace.status == "max_rounds"
    assert trace.n_rounds == 1
    assert not tight


def test_solve_over_the_exhaustive_budget_ends_at_separation_limit():
    # K = 3 escalates to t = 3, and the proof at n = 76 (76^4 > 2.8e7) is out
    # of budget: the solve stops with valid bounds and an open gap
    points, _ = generate(GenSpec("ssm", n=76, m=2, delta=1.5, seed=0))
    cfg = SolveConfig(k=3, seed=1)
    _, trace, tight = solve_kmeans_lp(points, cfg)
    assert trace.status == "separation_limit"
    assert not tight and not trace.rounds[-1].exhaustive
    assert 0.0 <= trace.f_lb <= trace.f_ub
    assert trace.r_g > cfg.eps_opt


def test_config_validation():
    for eps in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match="eps_opt"):
            SolveConfig(k=2, eps_opt=eps)
    for eps in (-1e-6, -np.inf, float("nan")):
        with pytest.raises(ValueError, match="eps_vio"):
            SolveConfig(k=2, eps_vio=eps)
    SolveConfig(k=2, eps_vio=0.0)
    with pytest.raises(ValueError, match="t_cap"):
        SolveConfig(k=2, t_cap=1)
    SolveConfig(k=3, t_cap=2)  # pair cuts only
    with pytest.raises(ValueError, match="p_init"):
        SolveConfig(k=2, p_init=-1)
    with pytest.raises(ValueError, match="p_max"):
        SolveConfig(k=2, p_max=-5)
    SolveConfig(k=2, p_init=0, p_max=0)
    for limit in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="lp_time_limit"):
            SolveConfig(k=2, lp_time_limit=limit)
    SolveConfig(k=2, lp_time_limit=1e-3)
    with pytest.raises(ValueError):
        SolveConfig(k=2, max_rounds=0)


def test_k_out_of_range(five_point):
    points, _, _ = five_point
    with pytest.raises(ValueError):
        solve_kmeans_lp(points, SolveConfig(k=6))
