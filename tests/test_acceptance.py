"""Acceptance suite: each criterion runs at its stated tolerance and prints a
single pass/fail line (run with -s to see them live).

Later criteria audit the LPs solved by earlier ones, so the module is meant
to run in file order (plain pytest does); every test still guards against
running standalone.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linprog

import lpkmeans.cutplane
from lpkmeans.certify import certify, gamma_values
from lpkmeans.core import (
    Partition,
    is_partition_matrix,
    kmeans_bruteforce,
    kmeans_cost,
    lp_objective,
    partition_matrix,
    same_partition,
    squared_distances,
    unpack_matrix,
)
from lpkmeans.cutplane import SolveConfig, solve_kmeans_lp
from lpkmeans.generators import GenSpec, generate
from lpkmeans.heuristics import LloydConfig, kmeanspp_lloyd
from lpkmeans.lp_model import all_cuts, build
from lpkmeans.separation import separate_exhaustive, separate_greedy
from lpkmeans.cli import mix_seed
from lpkmeans.solver import LpSolution, safe_lower_bound, solve

from conftest import cut_rows, random_partition, random_points

F_KMEANS = 146.0 / 72.0
F_LP = 54.0 / 28.0

# artifacts shared across criteria: audited LPs and reusable instances
SHARED = {"audit_direct": [], "audit_rounds": [], "small_instances": [], "traces": []}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _audit_direct(lp, sol) -> None:
    SHARED["audit_direct"].append((lp, sol, safe_lower_bound(lp, sol)))


@pytest.fixture
def audit_rounds(monkeypatch):
    """Keeps (LP, solution, bound) of every safe bound a cutting-plane round
    takes, for criterion 7."""

    def recording(lp, sol):
        bound = safe_lower_bound(lp, sol)
        SHARED["audit_rounds"].append((lp, sol, bound))
        return bound

    monkeypatch.setattr(lpkmeans.cutplane, "safe_lower_bound", recording)


def test_criterion_1_five_point_non_tightness():
    t0 = time.monotonic()
    points, _ = generate(GenSpec("five_point"))
    _, brute = kmeans_bruteforce(points, 2)
    assert brute == F_KMEANS, "brute-force optimum must be 146/72 exactly"

    d = squared_distances(points)
    lp = build(d, 2, all_cuts(5, 2))
    sol = solve(lp, tol=1e-8)
    _audit_direct(lp, sol)
    assert sol.status == "optimal_to_tol"
    assert sol.objective <= F_LP + 1e-6
    assert not is_partition_matrix(unpack_matrix(sol.x, 5), 2)

    rel_gap = (brute - sol.objective) / brute
    assert abs(rel_gap - 0.0493) <= 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(
        1, True,
        f"brute 146/72 exact, lp {sol.objective:.9f} <= 54/28+1e-6, not a partition "
        f"matrix, gap {rel_gap:.6f}, {elapsed:.2f}s",
    )


def test_criterion_2_five_ball_non_tightness():
    t0 = time.monotonic()
    wins = 0
    min_margin = np.inf
    for trial in range(10):
        seed = mix_seed(20240202, trial)
        points, _ = generate(GenSpec("five_ball", radius=3e-3, n_prime=5, m=3, seed=seed))
        _, brute = kmeans_bruteforce(points, 2)
        lp = build(squared_distances(points), 2, all_cuts(25, 2))
        sol = solve(lp, tol=1e-8)
        _audit_direct(lp, sol)
        margin = brute - sol.objective
        min_margin = min(min_margin, margin)
        wins += margin >= 1e-3
    elapsed = time.monotonic() - t0
    ok = wins == 10 and elapsed < 300.0
    _report(2, ok, f"{wins}/10 runs with LP below brute force, min margin {min_margin:.4f}, {elapsed:.1f}s")


def test_criterion_3_cutting_plane_equals_full_lp(audit_rounds):
    t0 = time.monotonic()
    matches = 0
    worst = 0.0
    for trial in range(20):
        seed = mix_seed(20240303, trial)
        n = 10 + (trial % 5) * 2
        k = 2 + (trial % 2)
        model = "ssm" if trial % 3 else "sbm"
        delta = 2.0 + (trial % 4) * 0.5
        points, planted = generate(GenSpec(model, n=n, m=2, delta=delta, r1=1.0, seed=seed))
        cfg = SolveConfig(k=k, eps_opt=1e-9, seed=seed, max_rounds=80)
        _, trace, _ = solve_kmeans_lp(points, cfg)

        lp = build(squared_distances(points), k, all_cuts(n, k))
        ref = solve(lp, tol=1e-8)
        _audit_direct(lp, ref)
        err = abs(trace.f_lb - ref.objective) / (1.0 + abs(ref.objective))
        worst = max(worst, err)
        matches += err <= 1e-5
        if k == 2:
            SHARED["small_instances"].append((points, planted))
    elapsed = time.monotonic() - t0
    ok = matches == 20 and elapsed < 120.0
    _report(3, ok, f"{matches}/20 terminal bounds match the direct solve, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_lp_tightness_favorable(audit_rounds):
    t0 = time.monotonic()
    wins = 0
    for trial in range(20):
        seed = mix_seed(20240404, trial)
        points, planted = generate(GenSpec("ssm", n=100, m=2, delta=3.0, r1=1.0, seed=seed))
        cfg = SolveConfig(k=2, seed=seed)
        partition, trace, tight = solve_kmeans_lp(points, cfg)
        SHARED["traces"].append(trace)
        wins += bool(tight and same_partition(partition.assign, planted.assign))
    elapsed = time.monotonic() - t0
    ok = wins >= 18 and elapsed < 600.0
    _report(4, ok, f"{wins}/20 runs tight with the planted partition recovered, {elapsed:.1f}s")


def test_criterion_5_certify_threshold():
    t0 = time.monotonic()
    rates = {}
    for delta, trials in ((2.3, 10), (1.9, 10)):
        hits = 0
        for trial in range(trials):
            seed = mix_seed(20240505, round(delta * 100) * 100 + trial)
            points, planted = generate(
                GenSpec("sbm", n=2000, m=2, delta=delta, r1=1.0, seed=seed)
            )
            d = squared_distances(points)
            state = certify(gamma_values(d, planted), planted)
            hits += state.success
        rates[delta] = hits / trials
    elapsed = time.monotonic() - t0
    ok = rates[2.3] >= 0.8 and rates[1.9] <= 0.2 and elapsed < 300.0
    _report(
        5, ok,
        f"certificate success rate {rates[2.3]:.1f} at delta=2.3 and {rates[1.9]:.1f} "
        f"at delta=1.9 (n=2000), {elapsed:.1f}s",
    )


def test_criterion_6_certify_soundness():
    instances = list(SHARED["small_instances"])
    for n, delta in ((24, 3.0), (36, 2.8), (48, 2.6), (60, 2.6)):
        instances.append(generate(GenSpec("sbm", n=n, m=2, delta=delta, r1=1.0, seed=n)))
    checked = 0
    sound = 0
    for points, planted in instances:
        if points.n > 60:
            continue
        d = squared_distances(points)
        state = certify(gamma_values(d, planted), planted)
        if not state.success:
            continue
        checked += 1
        lp = build(d, 2, all_cuts(points.n, 2))
        sol = solve(lp, tol=1e-8)
        _audit_direct(lp, sol)
        cost = kmeans_cost(points, planted)
        value_ok = abs(sol.objective - cost) <= 1e-6 * (1.0 + abs(cost))
        pm_ok = is_partition_matrix(unpack_matrix(sol.x, points.n), 2, 1e-5)
        sound += value_ok and pm_ok
    ok = checked >= 4 and sound == checked
    _report(6, ok, f"{sound}/{checked} certified instances solve to the planted partition matrix")


def test_criterion_7_safe_bound_validity():
    # every LP solved above is re-solved to high accuracy; small ones are
    # additionally cross-checked against an independent simplex solver
    if not SHARED["audit_direct"] and not SHARED["audit_rounds"]:
        points, _ = generate(GenSpec("five_point"))
        lp = build(squared_distances(points), 2, all_cuts(5, 2))
        for tol in (1e-1, 1e-3, 1e-8):
            _audit_direct(lp, solve(lp, tol=tol))

    checked = 0
    valid = 0
    for lp, sol, bound in SHARED["audit_direct"]:
        ref = solve(lp, tol=1e-10, warm=(sol.x, sol.y, sol.z))
        opt = ref.objective
        if lp.n_vars <= 400:
            res = linprog(
                lp.c,
                A_ub=lp.q if lp.q.shape[0] else None,
                b_ub=np.zeros(lp.q.shape[0]) if lp.q.shape[0] else None,
                A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, 1), method="highs",
            )
            assert res.status == 0
            assert abs(opt - res.fun) <= 1e-6 * (1.0 + abs(res.fun))
            opt = res.fun
        checked += 1
        valid += bound <= opt + 1e-9 * (1.0 + abs(opt))

    for lp, sol, bound in SHARED["audit_rounds"]:
        ref = solve(lp, tol=1e-10, warm=(sol.x, sol.y, sol.z))
        checked += 1
        valid += bound <= ref.objective + 1e-9 * (1.0 + abs(ref.objective))

    ok = checked > 0 and valid == checked
    _report(7, ok, f"{valid}/{checked} safe lower bounds below the high-accuracy optimum")


def test_criterion_8_separation_oracle_equivalence():
    rng = np.random.default_rng(20240808)
    agree = 0
    for trial in range(200):
        n = int(rng.integers(4, 13))
        t_max = int(rng.integers(2, 4))
        a = rng.random((n, n))
        x = 0.5 * (a + a.T)
        expected = set()
        for i in range(n):
            others = [v for v in range(n) if v != i]
            for size in range(2, t_max + 1):
                for s in itertools.combinations(others, size):
                    w = sum(x[i, j] for j in s) - x[i, i]
                    w -= sum(x[j, k] for j, k in itertools.combinations(s, 2))
                    if w > 1e-6:
                        expected.add((i, s))
        exhaustive = set(cut_rows(separate_exhaustive(x, t_max, 1e-6).cuts))
        greedy = set(cut_rows(separate_greedy(x, t_max, 1e-6).cuts))
        agree += exhaustive == expected and greedy <= exhaustive
    _report(8, agree == 200, f"{agree}/200 random matrices: exhaustive = brute force, greedy subset")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(20240909)
    failures = []

    # partition matrices are projections
    for _ in range(20):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(6, n) + 1))
        if not is_partition_matrix(partition_matrix(random_partition(rng, n, k)), k, 1e-12):
            failures.append("projection equivalence")
            break

    # clustering cost coincides with the matrix objective
    for _ in range(20):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, min(5, n) + 1))
        pts = random_points(rng, n, 3)
        p = random_partition(rng, n, k)
        a = kmeans_cost(pts, p)
        b = lp_objective(partition_matrix(p), squared_distances(pts))
        if abs(a - b) > 1e-10 * (1.0 + abs(a)):
            failures.append("objective equivalence")
            break

    # Lloyd's iterations never increase the cost (asserted inside _lloyd)
    for seed in range(5):
        pts = random_points(rng, 40, 2)
        kmeanspp_lloyd(pts, 3, LloydConfig(restarts=3, seed=seed))

    # monotone bound traces from the favourable runs (or a fresh one)
    traces = SHARED["traces"]
    if not traces:
        points, _ = generate(GenSpec("ssm", n=40, m=2, delta=3.0, r1=1.0, seed=9))
        traces = [solve_kmeans_lp(points, SolveConfig(k=2, seed=9))[1]]
    for trace in traces:
        lbs = [r.f_lb for r in trace.rounds]
        ubs = [r.f_ub for r in trace.rounds]
        if any(a > b + 1e-12 for a, b in zip(lbs, lbs[1:])):
            failures.append("f_lb monotonicity")
        if any(a < b - 1e-12 for a, b in zip(ubs, ubs[1:])):
            failures.append("f_ub monotonicity")

    # determinism under fixed seeds
    spec = GenSpec("sbm", n=30, m=3, delta=3.0, r1=0.8, seed=99)
    a_pts, _ = generate(spec)
    b_pts, _ = generate(spec)
    if not np.array_equal(a_pts.coords, b_pts.coords):
        failures.append("generator determinism")
    run_a = solve_kmeans_lp(a_pts, SolveConfig(k=2, seed=99))
    run_b = solve_kmeans_lp(b_pts, SolveConfig(k=2, seed=99))
    if not np.array_equal(run_a[0].assign, run_b[0].assign) or run_a[1].f_lb != run_b[1].f_lb:
        failures.append("solver determinism")

    _report(9, not failures, "all property suites green" if not failures else f"failed: {failures}")
