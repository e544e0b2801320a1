import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lpkmeans.core import pack_matrix, partition_matrix, squared_distances
from lpkmeans.lp_model import CutPool, LpStandardForm, all_cuts, build
from lpkmeans.solver import (
    _EPS,
    _ruiz_and_pock_chambolle,
    operator_norm_estimate,
    safe_lower_bound,
    solve,
    tolerance_schedule,
)

from conftest import random_partition, random_points

F_LP = 54.0 / 28.0


def _manual_lp(c, a_eq, b_eq, q=None) -> LpStandardForm:
    c = np.asarray(c, dtype=float)
    nv = c.size
    a = sp.csr_matrix(np.asarray(a_eq, dtype=float))
    qm = sp.csr_matrix((0, nv)) if q is None else sp.csr_matrix(np.asarray(q, dtype=float))
    return LpStandardForm(
        c=c,
        a_eq=a,
        b_eq=np.asarray(b_eq, dtype=float),
        q=qm,
        lb=np.zeros(nv),
        ub=np.ones(nv),
        n_points=0,
        k=0,
        cuts=(),
    )


def _solve_highs(lp: LpStandardForm) -> float:
    res = linprog(
        lp.c,
        A_ub=lp.q.toarray() if lp.q.shape[0] else None,
        b_ub=np.zeros(lp.q.shape[0]) if lp.q.shape[0] else None,
        A_eq=lp.a_eq.toarray(),
        b_eq=lp.b_eq,
        bounds=list(zip(lp.lb, lp.ub)),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def test_trivial_equality_lp():
    lp = _manual_lp([1.0], [[1.0]], [1.0])
    sol = solve(lp, tol=1e-8)
    assert sol.status == "optimal_to_tol"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert sol.gap <= 1e-8
    # from the zero start the first steps leave x at its bound, so the step
    # rule sees no interaction (an infinite admissible step): the step must
    # grow, neither collapse to 0 nor turn NaN
    assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()
    assert np.isfinite(sol.step) and sol.step > 0
    assert np.isfinite(sol.primal_weight) and sol.primal_weight > 0


def test_five_point_lp_optimum(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    sol = solve(lp, tol=1e-8)
    assert sol.status == "optimal_to_tol"
    assert abs(sol.objective - F_LP) < 1e-6
    # cross-check against a tighter solve from several random starts
    rng = np.random.default_rng(31)
    for _ in range(3):
        warm = (rng.random(lp.n_vars), rng.normal(size=6), np.zeros(30))
        ref = solve(lp, tol=1e-10, warm=warm)
        assert abs(ref.objective - F_LP) < 1e-8


def test_solution_feasibility_at_tolerance(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    tol = 1e-8
    sol = solve(lp, tol=tol)
    assert np.abs(lp.a_eq @ sol.x - lp.b_eq).max() <= tol * (1 + np.linalg.norm(lp.b_eq))
    assert (lp.q @ sol.x).max() <= tol
    assert sol.x.min() >= -tol and sol.x.max() <= 1 + tol
    assert np.all(sol.z <= 0.0)


def test_planted_primal_dual_pairs():
    rng = np.random.default_rng(32)
    for trial in range(20):
        nv, me, mi = 9, 3, 5
        x_star = rng.random(nv)
        x_star[:3] = 0.0
        x_star[3:6] = 1.0
        x_star[6] = 0.5
        a = rng.normal(size=(me, nv))
        b = a @ x_star
        q = rng.normal(size=(mi, nv))
        denom = float(x_star @ x_star)
        for i in range(mi):
            margin = 0.0 if i < 2 else float(rng.random() + 0.1)
            q[i] -= ((q[i] @ x_star + margin) / denom) * x_star
        y_star = rng.normal(size=me)
        z_star = np.zeros(mi)
        z_star[:2] = -rng.random(2)
        g = np.zeros(nv)
        g[:3] = rng.random(3)
        g[3:6] = -rng.random(3)
        c = a.T @ y_star + q.T @ z_star + g
        lp = _manual_lp(c, a, b, q)
        planted_obj = float(c @ x_star)
        assert abs(_solve_highs(lp) - planted_obj) < 1e-9 * (1 + abs(planted_obj))
        tol = 1e-8
        sol = solve(lp, tol=tol)
        assert sol.status == "optimal_to_tol", f"trial {trial}"
        assert abs(sol.objective - planted_obj) <= 10 * tol * (1 + abs(planted_obj))


def test_safe_bound_residual_free_cases():
    lp = _manual_lp([1.0], [[1.0]], [1.0])
    from lpkmeans.solver import LpSolution

    sol = LpSolution(
        x=np.array([1.0]), y=np.array([0.5]), z=np.zeros(0),
        primal_residual=0, gap=0, status="optimal_to_tol",
        iterations=0, objective=1.0, step=1.0, primal_weight=1.0, rejected_steps=0,
    )
    # feasible dual (r = 0): bound equals y.b
    assert safe_lower_bound(lp, sol) == pytest.approx(0.5)
    sol.y = np.array([0.0])
    assert safe_lower_bound(lp, sol) == 0.0


def test_safe_bound_zero_dual_nonnegative_costs(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    from lpkmeans.solver import LpSolution

    sol = LpSolution(
        x=np.zeros(lp.n_vars), y=np.zeros(6), z=np.zeros(30),
        primal_residual=0, gap=0, status="optimal_to_tol",
        iterations=0, objective=0.0, step=1.0, primal_weight=1.0, rejected_steps=0,
    )
    assert safe_lower_bound(lp, sol) == 0.0


def test_safe_bound_validity_under_early_stop():
    rng = np.random.default_rng(33)
    for seed in range(50):
        pts = random_points(rng, 6, 2)
        d = squared_distances(pts)
        lp = build(d, 2, CutPool(all_cuts(6, 2)))
        loose = solve(lp, tol=1e-2)
        ref = solve(lp, tol=1e-10)
        bound = safe_lower_bound(lp, loose)
        assert bound <= ref.objective + 1e-9 * (1 + abs(ref.objective)), f"seed {seed}"


def test_safe_bound_below_partition_costs():
    # weak duality against exactly feasible primal points
    rng = np.random.default_rng(34)
    for _ in range(10):
        pts = random_points(rng, 8, 2)
        d = squared_distances(pts)
        lp = build(d, 2, CutPool(all_cuts(8, 2)))
        sol = solve(lp, tol=1e-4)
        bound = safe_lower_bound(lp, sol)
        for _ in range(5):
            xp = pack_matrix(partition_matrix(random_partition(rng, 8, 2)))
            assert bound <= float(lp.c @ xp) + 1e-9


def test_objective_monotone_under_cut_addition():
    rng = np.random.default_rng(35)
    pts = random_points(rng, 8, 2)
    d = squared_distances(pts)
    cuts = list(all_cuts(8, 2))
    rng.shuffle(cuts)
    tol = 1e-8
    prev_obj = None
    for count in (0, 40, len(cuts)):
        lp = build(d, 2, CutPool(cuts[:count]))
        sol = solve(lp, tol=tol)
        assert sol.status == "optimal_to_tol"
        if prev_obj is not None:
            assert prev_obj <= sol.objective + 2 * tol * (1 + abs(sol.objective))
        prev_obj = sol.objective


def test_matches_reference_simplex_solver():
    rng = np.random.default_rng(36)
    for n, k in ((6, 2), (8, 2), (7, 3)):
        pts = random_points(rng, n, 2)
        d = squared_distances(pts)
        lp = build(d, k, CutPool(all_cuts(n, 2)))
        ref = _solve_highs(lp)
        sol = solve(lp, tol=1e-8)
        assert abs(sol.objective - ref) < 1e-6 * (1 + abs(ref))


def test_solver_deterministic(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    a = solve(lp, tol=1e-8)
    b = solve(lp, tol=1e-8)
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def test_iteration_limit_reported(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    sol = solve(lp, tol=1e-12, max_iters=50)
    assert sol.status == "iteration_limit"
    assert sol.iterations == 50
    assert np.isfinite(sol.primal_residual) and np.isfinite(sol.gap)


# ---------------------------------------------------------------------------
# adaptive step
# ---------------------------------------------------------------------------


def _cold_step(lp: LpStandardForm) -> float:
    """The step a cold solve starts from: 1 / max|K| on the scaled matrix."""
    k_s, _, _ = _ruiz_and_pock_chambolle(sp.vstack([lp.a_eq, -lp.q], format="csr"))
    return 1.0 / np.abs(k_s.data).max()


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 9), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_adaptive_step_matches_highs(n, k, seed):
    pts = random_points(np.random.default_rng(seed), n, 2)
    lp = build(squared_distances(pts), k, CutPool(all_cuts(n, 2)))
    ref = _solve_highs(lp)
    sol = solve(lp, tol=1e-8)
    assert sol.status == "optimal_to_tol"
    assert abs(sol.objective - ref) < 1e-6 * (1 + abs(ref))
    assert safe_lower_bound(lp, sol) <= ref + 1e-9
    assert np.isfinite(sol.step) and sol.step > 0 and sol.rejected_steps >= 0


@pytest.mark.parametrize("factor", [1e6, 1e-6], ids=["huge", "tiny"])
def test_absurd_carried_step_converges(five_point, factor):
    # a huge carried step is turned down and retried below the admissible
    # one; a tiny one grows by (1 + (k+1)^-0.6) per accepted step
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    loose = solve(lp, tol=1e-2)
    start = factor * _cold_step(lp)
    sol = solve(lp, tol=1e-8, warm=(loose.x, loose.y, loose.z), step=start,
                primal_weight=loose.primal_weight)
    assert sol.status == "optimal_to_tol"
    assert abs(sol.objective - F_LP) < 1e-6
    assert np.isfinite(sol.step) and sol.step > 0
    if factor > 1:
        assert sol.rejected_steps > 0 and sol.step < start
    else:
        assert sol.step > start


def test_carried_primal_weight_clipped(five_point):
    # a carried primal weight is held to PDLP's range like a computed one
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    for weight, clipped in ((1e9, 1e4), (1e-9, 1e-4)):
        sol = solve(lp, tol=1e-12, max_iters=1, primal_weight=weight)
        assert sol.primal_weight == clipped


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def test_operator_norm_identity():
    lp = _manual_lp(np.zeros(4), np.eye(4), np.zeros(4))
    assert operator_norm_estimate(lp) == pytest.approx(1.0, rel=0.02)


def test_operator_norm_single_row():
    k = 9
    lp = _manual_lp(np.zeros(k), np.ones((1, k)), [1.0])
    assert operator_norm_estimate(lp) == pytest.approx(np.sqrt(k), rel=0.02)


def test_operator_norm_five_point_vs_svd(five_point):
    _, _, d = five_point
    lp = build(d, 2, CutPool(all_cuts(5, 2)))
    exact = np.linalg.svd(lp.stacked().toarray(), compute_uv=False)[0]
    assert operator_norm_estimate(lp) == pytest.approx(exact, rel=0.02)


def test_tolerance_schedule():
    assert tolerance_schedule(np.inf, 1e-4, 1e-8) == 1e-4
    assert tolerance_schedule(1.0, 1e-4, 1e-8) == 1e-4
    assert tolerance_schedule(1e-3, 1e-4, 1e-8) == pytest.approx(1e-4)
    assert tolerance_schedule(1e-5, 1e-4, 1e-8) == pytest.approx(1e-6)
    assert tolerance_schedule(1e-12, 1e-4, 1e-8) == 1e-8
    # a looser start lets 0.1 r_g act while the gap is above 1e-3
    assert tolerance_schedule(np.inf, 1e-3, 1e-8) == 1e-3
    assert tolerance_schedule(1.0, 1e-3, 1e-8) == 1e-3
    assert tolerance_schedule(5e-3, 1e-3, 1e-8) == pytest.approx(5e-4)
    assert tolerance_schedule(1e-5, 1e-3, 1e-8) == pytest.approx(1e-6)
    assert tolerance_schedule(1e-12, 1e-3, 1e-8) == 1e-8
    # the default start, 0.1, is the rule's value at r_g = 1 (the start
    # bound f_lb = 0), so after round 1 the cap never binds
    assert tolerance_schedule(np.inf, 1e-1, 1e-8) == 1e-1
    assert tolerance_schedule(1.0, 1e-1, 1e-8) == 1e-1
    assert tolerance_schedule(0.5, 1e-1, 1e-8) == pytest.approx(5e-2)
    assert tolerance_schedule(5e-3, 1e-1, 1e-8) == pytest.approx(5e-4)
    assert tolerance_schedule(1e-12, 1e-1, 1e-8) == 1e-8


def diag_product_equilibration(kmat, ruiz_iters=8, alpha=1.0):
    """Ruiz and Pock-Chambolle scaling through sparse diagonal products and
    scipy's sparse max/sum; the reference for the in-place kernel."""
    m, nv = kmat.shape
    dr = np.ones(m)
    dc = np.ones(nv)
    k = kmat.copy()
    for _ in range(ruiz_iters):
        absk = abs(k)
        row_max = absk.max(axis=1).toarray().ravel()
        col_max = absk.max(axis=0).toarray().ravel()
        rs = 1.0 / np.sqrt(np.maximum(row_max, _EPS))
        cs = 1.0 / np.sqrt(np.maximum(col_max, _EPS))
        rs[row_max <= _EPS] = 1.0
        cs[col_max <= _EPS] = 1.0
        k = sp.diags(rs) @ k @ sp.diags(cs)
        dr *= rs
        dc *= cs
    if alpha > 0:
        absk = abs(k)
        row_sum = np.asarray(absk.power(alpha).sum(axis=1)).ravel()
        col_sum = np.asarray(absk.power(2.0 - alpha).sum(axis=0)).ravel()
        rs = 1.0 / np.sqrt(np.sqrt(np.maximum(row_sum, _EPS)))
        cs = 1.0 / np.sqrt(np.sqrt(np.maximum(col_sum, _EPS)))
        rs[row_sum <= _EPS] = 1.0
        cs[col_sum <= _EPS] = 1.0
        k = sp.diags(rs) @ k @ sp.diags(cs)
        dr *= rs
        dc *= cs
    return k.tocsr(), dr, dc


@st.composite
def sparse_matrices(draw):
    """CSR matrices with mixed signs, magnitudes from 1e-14 (below the
    scaling's cutoff) to 1e6, explicit zeros, and empty rows and columns."""
    m, nv = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((m, nv)) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    mask[rng.random(m) < 0.2] = False
    mask[:, rng.random(nv) < 0.2] = False
    rows, cols = np.nonzero(mask)
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-14, 6, rows.size)
    vals[rng.random(rows.size) < 0.1] = 0.0
    if draw(st.booleans()):  # the LPs' own entries: small integers
        vals = rng.integers(-2, 3, rows.size).astype(float)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, nv))


# At least one Ruiz pass: the reference's first diagonal product drops the
# explicit zeros, which would otherwise regroup numpy's pairwise row sums.
@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.sampled_from([1, 2, 8]), st.sampled_from([0.5, 1.0]))
def test_equilibration_bit_identical_to_diag_products(kmat, ruiz_iters, alpha):
    before = kmat.copy()
    got, dr, dc = _ruiz_and_pock_chambolle(kmat, ruiz_iters, alpha)
    ref, ref_dr, ref_dc = diag_product_equilibration(kmat, ruiz_iters, alpha)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert np.array_equal(dr, ref_dr) and np.array_equal(dc, ref_dc)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(kmat, name), getattr(before, name))
