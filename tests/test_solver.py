import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from lpkmeans.core import pack_matrix, partition_matrix, squared_distances
from lpkmeans.lp_model import LpStandardForm, all_cuts, build
from lpkmeans.solver import (
    _EPS,
    LpSolution,
    _pock_chambolle,
    safe_lower_bound,
    solve,
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
    lp = build(d, 2, all_cuts(5, 2))
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
    lp = build(d, 2, all_cuts(5, 2))
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
    sol = LpSolution(
        x=np.array([1.0]), y=np.array([0.5]), z=np.zeros(0),
        primal_residual=0, gap=0, status="optimal_to_tol",
        iterations=0, objective=1.0, step=1.0, primal_weight=1.0, rejected_steps=0,
        restarts=0, matvecs=0,
    )
    # feasible dual (r = 0): bound equals y.b
    assert safe_lower_bound(lp, sol) == pytest.approx(0.5)
    sol.y = np.array([0.0])
    assert safe_lower_bound(lp, sol) == 0.0


def test_safe_bound_zero_dual_nonnegative_costs(five_point):
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    sol = LpSolution(
        x=np.zeros(lp.n_vars), y=np.zeros(6), z=np.zeros(30),
        primal_residual=0, gap=0, status="optimal_to_tol",
        iterations=0, objective=0.0, step=1.0, primal_weight=1.0, rejected_steps=0,
        restarts=0, matvecs=0,
    )
    assert safe_lower_bound(lp, sol) == 0.0


def test_safe_bound_validity_under_early_stop():
    rng = np.random.default_rng(33)
    for seed in range(50):
        pts = random_points(rng, 6, 2)
        d = squared_distances(pts)
        lp = build(d, 2, all_cuts(6, 2))
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
        lp = build(d, 2, all_cuts(8, 2))
        sol = solve(lp, tol=1e-4)
        bound = safe_lower_bound(lp, sol)
        for _ in range(5):
            xp = pack_matrix(partition_matrix(random_partition(rng, 8, 2)))
            assert bound <= float(lp.c @ xp) + 1e-9


def exact_dual_value(lp: LpStandardForm, sol: LpSolution) -> Fraction:
    """y.b - r.ub with r = max(A^T y + Q^T z - c, 0) and z clamped to <= 0,
    in exact rational arithmetic: a lower bound on the LP optimum for any
    duals, so no safe bound may exceed it."""
    y = [Fraction(v) for v in sol.y.tolist()]
    z = [Fraction(min(v, 0.0)) for v in sol.z.tolist()]
    grad = [-Fraction(v) for v in lp.c.tolist()]
    for mat, dual in ((lp.a_eq.tocoo(), y), (lp.q.tocoo(), z)):
        for row, col, v in zip(mat.row.tolist(), mat.col.tolist(), mat.data.tolist()):
            grad[col] += Fraction(v) * dual[row]
    value = sum(yi * Fraction(b) for yi, b in zip(y, lp.b_eq.tolist()))
    return value - sum(max(g, 0) * Fraction(u) for g, u in zip(grad, lp.ub.tolist()))


@st.composite
def built_lps_with_duals(draw):
    """A built LP (n 3-7, K 2..n, often K = n, a random share of the pair and
    triple cuts) and duals: a PDHG solution at a random tolerance, that
    solution nudged by a few ulps, or random ones on a random scale.  At
    K = n the optimum is 0, so the solved duals' y.b and r.ub cancel."""
    n = draw(st.integers(3, 7))
    k = draw(st.one_of(st.just(n), st.integers(2, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = random_points(rng, n, 2, scale=10.0 ** draw(st.integers(-3, 3)))
    cuts = all_cuts(n, min(3, k))
    lp = build(squared_distances(pts), k, cuts.take(rng.random(len(cuts)) < draw(st.sampled_from([0.0, 0.3, 1.0]))))
    kind = draw(st.sampled_from(["solved", "nudged", "random"]))
    if kind == "random":
        scale = 10.0 ** draw(st.integers(-3, 6))
        y = scale * rng.normal(size=lp.a_eq.shape[0])
        z = -scale * np.abs(rng.normal(size=lp.q.shape[0]))
    else:
        sol = solve(lp, tol=10.0 ** -draw(st.integers(1, 10)))
        y, z = sol.y, sol.z
        if kind == "nudged":
            y = y * (1.0 + 4e-16 * rng.integers(-4, 5, size=y.size))
            z = z * (1.0 + 4e-16 * rng.integers(-4, 5, size=z.size))
    return lp, LpSolution(
        x=np.zeros(lp.n_vars), y=y, z=z, primal_residual=0, gap=0, status="optimal_to_tol",
        iterations=0, objective=0.0, step=1.0, primal_weight=1.0, rejected_steps=0,
        restarts=0, matvecs=0,
    )


@settings(max_examples=80, deadline=None)
@given(built_lps_with_duals())
def test_safe_bound_never_exceeds_the_exact_dual_value(instance):
    lp, sol = instance
    assert Fraction(safe_lower_bound(lp, sol)) <= exact_dual_value(lp, sol)


def test_objective_monotone_under_cut_addition():
    rng = np.random.default_rng(35)
    pts = random_points(rng, 8, 2)
    d = squared_distances(pts)
    cuts = all_cuts(8, 2)
    cuts = cuts.take(rng.permutation(len(cuts)))
    tol = 1e-8
    prev_obj = None
    for count in (0, 40, len(cuts)):
        lp = build(d, 2, cuts[:count])
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
        lp = build(d, k, all_cuts(n, 2))
        ref = _solve_highs(lp)
        sol = solve(lp, tol=1e-8)
        assert abs(sol.objective - ref) < 1e-6 * (1 + abs(ref))


def test_solver_deterministic(five_point):
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    a = solve(lp, tol=1e-8)
    b = solve(lp, tol=1e-8)
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def test_iteration_limit_reported(five_point):
    _, _, d = five_point
    lp = build(d, 2, all_cuts(5, 2))
    sol = solve(lp, tol=1e-12, max_iters=50)
    assert sol.status == "iteration_limit"
    assert sol.iterations == 50
    assert np.isfinite(sol.primal_residual) and np.isfinite(sol.gap)
    # K^T y and K x at the start, K x and K^T y per step attempt, and three
    # products at the one check: K x, K x_bar and K^T y_bar
    assert sol.restarts == 0
    assert sol.matvecs == 2 + 2 * (sol.iterations + sol.rejected_steps) + 3


# ---------------------------------------------------------------------------
# adaptive step
# ---------------------------------------------------------------------------


def _cold_step(lp: LpStandardForm) -> float:
    """The step a cold solve starts from: 1 / max|K| on the scaled matrix."""
    k_s = sp.vstack([lp.a_eq, -lp.q], format="csr")
    _pock_chambolle(k_s)
    return 1.0 / np.abs(k_s.data).max()


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 9), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_adaptive_step_matches_highs(n, k, seed):
    pts = random_points(np.random.default_rng(seed), n, 2)
    lp = build(squared_distances(pts), k, all_cuts(n, 2))
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
    lp = build(d, 2, all_cuts(5, 2))
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
    lp = build(d, 2, all_cuts(5, 2))
    for weight, clipped in ((1e9, 1e4), (1e-9, 1e-4)):
        sol = solve(lp, tol=1e-12, max_iters=1, primal_weight=weight)
        assert sol.primal_weight == clipped


def diag_product_equilibration(kmat):
    """The Pock-Chambolle pass through scipy's sparse sum and sparse diagonal
    products; the reference for the in-place kernel."""
    k = kmat.copy()
    # explicit zeros would regroup numpy's pairwise row sums; the kernel
    # drops them first, as the diagonal product below does
    k.eliminate_zeros()
    absk = abs(k)
    row_sum = np.asarray(absk.sum(axis=1)).ravel()
    col_sum = np.asarray(absk.sum(axis=0)).ravel()
    rs = 1.0 / np.sqrt(np.sqrt(np.maximum(row_sum, _EPS)))
    cs = 1.0 / np.sqrt(np.sqrt(np.maximum(col_sum, _EPS)))
    rs[row_sum <= _EPS] = 1.0
    cs[col_sum <= _EPS] = 1.0
    return (sp.diags(rs) @ k @ sp.diags(cs)).tocsr(), rs, cs


# PDLP's default equilibration, up to eight Ruiz passes and then one
# Pock-Chambolle pass: the reference showing that the one pass alone is all
# of it on every LP built here
def ruiz_then_pock_chambolle(k: sp.csr_matrix, ruiz_iters: int = 8,
                             alpha: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal equilibration of ``k`` in place: ``k`` becomes
    diag(dr) @ K @ diag(dc), its explicit zeros dropped, and (dr, dc) are
    returned.

    Row reductions are ``reduceat`` over the non-empty rows and column
    reductions are ``at`` in storage order, as scipy's own sparse
    ``max``/``sum`` compute them, so the result is bit for bit that of the
    sparse diagonal products.  The Ruiz passes end early at their fixed
    point, a pass whose row and column factors are all exactly 1.0."""
    m, nv = k.shape
    dr = np.ones(m)
    dc = np.ones(nv)
    k.eliminate_zeros()  # as the diagonal products would
    starts = k.indptr[:-1]
    nonempty = np.diff(k.indptr) > 0
    rows = np.repeat(np.arange(m, dtype=np.int32), np.diff(k.indptr))

    def rescale(op, row_vals, col_vals, root):
        row_red = np.zeros(m)
        row_red[nonempty] = op.reduceat(row_vals, starts[nonempty])
        col_red = np.zeros(nv)
        op.at(col_red, k.indices, col_vals)
        rs = 1.0 / root(np.maximum(row_red, _EPS))
        cs = 1.0 / root(np.maximum(col_red, _EPS))
        rs[row_red <= _EPS] = 1.0
        cs[col_red <= _EPS] = 1.0
        if (rs == 1.0).all() and (cs == 1.0).all():
            return True  # scaling by ones would change nothing
        np.multiply(k.data, rs[rows], out=k.data)
        np.multiply(k.data, cs[k.indices], out=k.data)
        np.multiply(dr, rs, out=dr)
        np.multiply(dc, cs, out=dc)
        return False

    for _ in range(ruiz_iters):
        absk = np.abs(k.data)
        # all factors 1.0 leave K, dr and dc as they were, so every later
        # pass would compute the same ones (every LP built here has +-1
        # entries and stops after its first pass)
        if rescale(np.maximum, absk, absk, np.sqrt):
            break
    if alpha > 0:
        absk = np.abs(k.data)
        # x**1.0 == x, so alpha = 1 sums |K| itself
        row_vals, col_vals = (absk, absk) if alpha == 1.0 else (absk**alpha, absk ** (2.0 - alpha))
        rescale(np.add, row_vals, col_vals, lambda v: np.sqrt(np.sqrt(v)))
    return dr, dc


@st.composite
def sparse_matrices(draw):
    """CSR matrices with mixed signs, magnitudes from 1e-14 (below the
    scaling's cutoff) to 1e6, explicit zeros, and empty rows and columns;
    or with small integer entries; or with +-1 entries, the form of every
    LP built here; or with row maxima 1 and column maxima below 1."""
    m, nv = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((m, nv)) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    mask[rng.random(m) < 0.2] = False
    mask[:, rng.random(nv) < 0.2] = False
    rows, cols = np.nonzero(mask)
    signs = rng.choice([-1.0, 1.0], rows.size)
    kind = draw(st.sampled_from(["spread", "small_int", "unit", "unit_rows"]))
    if kind == "spread":
        vals = signs * 10.0 ** rng.uniform(-14, 6, rows.size)
    elif kind == "small_int":
        vals = rng.integers(-2, 3, rows.size).astype(float)
    elif kind == "unit":
        vals = signs
    else:
        vals = signs * rng.uniform(0.25, 0.75, rows.size)
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        vals[first] = signs[first]  # one entry of magnitude 1 per stored row
    vals[rng.random(rows.size) < 0.1] = 0.0
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, nv))


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_equilibration_bit_identical_to_diag_products(kmat):
    # the kernel scales its argument in place, so it gets a copy
    got = kmat.copy()
    dr, dc = _pock_chambolle(got)
    ref, ref_dr, ref_dc = diag_product_equilibration(kmat)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert np.array_equal(dr, ref_dr) and np.array_equal(dc, ref_dc)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 8),
    st.sampled_from([2, 3, 4]),
    st.sampled_from([2, 3]),
    st.sampled_from(["none", "some", "all"]),
    st.integers(0, 2**32 - 1),
)
def test_one_pass_equals_ruiz_then_pock_chambolle_on_built_lps(n, k, t, cuts, seed):
    # every LP built here has +-1 entries, so the Ruiz passes scale by ones
    # and the one Pock-Chambolle pass is the whole of PDLP's equilibration
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pool = all_cuts(n, t)
    if cuts == "some":
        pool = pool.take(np.sort(rng.choice(len(pool), len(pool) // 3, replace=False)))
    elif cuts == "none":
        pool = pool[:0]
    lp = build(squared_distances(random_points(rng, n, 2)), k, pool)
    # stacked and negated as solve() does it
    k_s = sp.vstack([lp.a_eq, lp.q], format="csr")
    cut_data = k_s.data[k_s.indptr[lp.a_eq.shape[0]]:]
    np.negative(cut_data, out=cut_data)
    ref = k_s.copy()
    dr, dc = _pock_chambolle(k_s)
    ref_dr, ref_dc = ruiz_then_pock_chambolle(ref)
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(k_s, name), getattr(ref, name)), name
    assert _same_bits(dr, ref_dr) and _same_bits(dc, ref_dc)


# ---------------------------------------------------------------------------
# in-place PDHG loop
# ---------------------------------------------------------------------------


def _reference_kkt(lp, k_s, k_s_t, dr, dc, q, me, xv, yv):
    # the measures of the unscaled pair (xv dc, yv dr) from the scaled
    # products: K (xv dc) = (K_s xv) / dr and K^T (yv dr) = (K_s^T yv) / dc
    x = xv * dc
    yin = yv * dr
    res = q - (k_s @ xv) / dr
    res[me:] = np.maximum(res[me:], 0.0)
    pr = np.linalg.norm(res) / (1.0 + np.linalg.norm(lp.b_eq))
    reduced = lp.c - (k_s_t @ yv) / dc
    pobj = float(lp.c @ x)
    dobj = float(yin[:me] @ lp.b_eq + np.minimum(reduced, 0.0) @ lp.ub)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return pr, gap, pobj, dobj


def reference_solve(lp, tol=1e-8, time_limit=None, max_iters=400_000, warm=None,
                    scaling=True, step=None, primal_weight=None):
    """Restarted PDHG as one expression per update, allocating every vector
    it writes and computing every product it uses through ``@``, K^T ones
    on a transposed copy; the reference for the in-place loop of
    :func:`solve`.  The dual step y + s q + K v sums each row of K v onto
    y + s q, as the kernel writing into the dual step does: the product
    [I K] [y + s q; v] adds the same terms in the same order.  The averages
    are step-weighted sums divided at the checks.  Returns the solution
    (``matvecs`` reads 0) and the number of restarts to the average."""
    t0 = time.monotonic()
    nv = lp.n_vars
    me = lp.a_eq.shape[0]
    mi = lp.q.shape[0]
    if mi:
        k_s = sp.vstack([lp.a_eq, -lp.q], format="csr")
    else:
        k_s = lp.a_eq.copy()
    q_rhs = np.concatenate([lp.b_eq, np.zeros(mi)])
    if scaling:
        dr, dc = _pock_chambolle(k_s)
    else:
        dr, dc = np.ones(me + mi), np.ones(nv)
    k_s_t = k_s.T.tocsr()
    k_aug = sp.hstack([sp.identity(me + mi, format="csr"), k_s], format="csr")
    c_s = lp.c * dc
    q_s = q_rhs * dr
    lb_s = lp.lb / dc
    ub_s = lp.ub / dc
    if step is None:
        k_max = float(np.abs(k_s.data).max()) if k_s.nnz else 0.0
        step = 1.0 / max(k_max, _EPS)
    eta = float(step)
    if primal_weight is None:
        cn = np.linalg.norm(c_s)
        qn = np.linalg.norm(q_s)
        primal_weight = cn / qn if cn > _EPS and qn > _EPS else 1.0
    omega = float(np.clip(primal_weight, 1e-4, 1e4))
    if warm is not None:
        wx, wy, wz = warm
        x = np.clip(wx / dc, lb_s, ub_s)
        yin = np.concatenate([wy, -np.minimum(wz, 0.0)]) / dr
        yin[me:] = np.maximum(yin[me:], 0.0)
    else:
        x = np.clip(np.zeros(nv), lb_s, ub_s)
        yin = np.zeros(me + mi)

    def proj_y(y):
        y[me:] = np.maximum(y[me:], 0.0)
        return y

    def restart_error(xv, yv, w):
        res = q_s - k_s @ xv
        res[me:] = np.maximum(res[me:], 0.0)
        reduced = c_s - k_s_t @ yv
        pobj = float(c_s @ xv)
        dobj = float(yv @ q_s + np.minimum(reduced, 0.0) @ ub_s)
        return (w * w) * float(res @ res) + (pobj - dobj) ** 2

    def finalize(xv, yv, status, iters):
        x_u = xv * dc
        y_u = yv * dr
        pr, gap, pobj, _ = _reference_kkt(lp, k_s, k_s_t, dr, dc, q_rhs, me, xv, yv)
        z = -np.maximum(y_u[me:], 0.0)
        sol = LpSolution(
            x=x_u, y=y_u[:me], z=z, primal_residual=pr, gap=gap,
            status=status, iterations=iters, objective=pobj,
            step=eta, primal_weight=omega, rejected_steps=rejected,
            restarts=restarts, matvecs=0,
        )
        return sol, to_average

    iterations = rejected = restarts = to_average = 0
    x_prev_restart, y_prev_restart = x.copy(), yin.copy()
    kty = k_s_t @ yin
    while True:
        err_at_restart = restart_error(x, yin, omega)
        x_sum = np.zeros(nv)
        y_sum = np.zeros(me + mi)
        step_sum = 0.0
        inner = 0
        err_candidate_prev = np.inf
        while True:
            k_acc = iterations + 1
            shrink = 1.0 - (k_acc + 1) ** -0.3
            grow = 1.0 + (k_acc + 1) ** -0.6
            while True:
                x_new = np.clip(x - (eta / omega) * (c_s - kty), lb_s, ub_s)
                s = eta * omega
                y_start = yin.copy()
                y_start[:me] = yin[:me] + s * q_s[:me]
                y_new = proj_y(k_aug @ np.concatenate([y_start, s * (x - 2.0 * x_new)]))
                kty_new = k_s_t @ y_new
                dx = x_new - x
                dy = y_new - yin
                interaction = abs(float(dx @ (kty_new - kty)))
                movement = omega * float(dx @ dx) + float(dy @ dy) / omega
                eta_bar = movement / (2.0 * interaction) if interaction > 0.0 else math.inf
                eta_next = grow * eta
                if shrink * eta_bar < eta_next:
                    eta_next = shrink * eta_bar
                if not eta > eta_bar:
                    break
                rejected += 1
                eta = eta_next
            x, yin, kty = x_new, y_new, kty_new
            inner += 1
            iterations += 1
            step_sum += eta
            x_sum = x_sum + eta * x
            y_sum = y_sum + eta * yin
            eta = eta_next
            if iterations % 64 and iterations < max_iters:
                continue
            if not (np.isfinite(x).all() and np.isfinite(yin).all()):
                return finalize(x_prev_restart, y_prev_restart, "numerical_failure", iterations)
            x_bar = x_sum / step_sum
            y_bar = y_sum / step_sum
            for xv, yv in ((x, yin), (x_bar, y_bar)):
                pr, gap, _, _ = _reference_kkt(lp, k_s, k_s_t, dr, dc, q_rhs, me, xv, yv)
                if max(pr, gap) <= tol:
                    return finalize(xv, yv, "optimal_to_tol", iterations)
            if iterations >= max_iters or (
                time_limit is not None and time.monotonic() - t0 >= time_limit
            ):
                err_cur = restart_error(x, yin, omega)
                err_avg = restart_error(x_bar, y_bar, omega)
                xv, yv = (x, yin) if err_cur <= err_avg else (x_bar, y_bar)
                status = "iteration_limit" if iterations >= max_iters else "time_limit"
                return finalize(xv, yv, status, iterations)
            err_cur = restart_error(x, yin, omega)
            err_avg = restart_error(x_bar, y_bar, omega)
            if err_cur <= err_avg:
                err_candidate, cand_x, cand_y = err_cur, x, yin
            else:
                err_candidate, cand_x, cand_y = err_avg, x_bar, y_bar
            do_restart = (
                err_candidate <= 0.2**2 * err_at_restart
                or (err_candidate <= 0.8**2 * err_at_restart
                    and err_candidate > err_candidate_prev)
                or inner >= 0.36 * iterations
            )
            err_candidate_prev = err_candidate
            if do_restart:
                restarts += 1
                if cand_y is y_bar:
                    to_average += 1
                    kty = k_s_t @ y_bar
                x = cand_x.copy()
                yin = cand_y.copy()
                break
        dx = np.linalg.norm(x - x_prev_restart)
        dy = np.linalg.norm(yin - y_prev_restart)
        if dx > _EPS and dy > _EPS:
            omega = float(np.clip((dy / dx) ** 0.5 * omega ** 0.5, 1e-4, 1e4))
        x_prev_restart, y_prev_restart = x.copy(), yin.copy()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 9),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["cold", "warm", "warm_carried"]),
    st.sampled_from([1.0, 1e-2, 1e2]),
    st.sampled_from([1e-3, 1e-6, 1e-9]),
    st.one_of(st.just(400_000), st.integers(1, 400)),
)
@example(9, 3, 5, "cold", 1.0, 1e-9, 400_000)
def test_in_place_loop_bit_identical_to_reference(n, k, seed, start, factor, tol, max_iters):
    # the same iterates bit for bit: equal x, y, z, counts, step, weight and
    # status from cold and warm starts, a carried (and rescaled) step and
    # weight, budgets that end between two checks, and restarts to the average
    pts = random_points(np.random.default_rng(seed), n, 2)
    lp = build(squared_distances(pts), k, all_cuts(n, 2))
    kwargs = dict(tol=tol, max_iters=max_iters)
    if start != "cold":
        loose = solve(lp, tol=1e-2)
        kwargs["warm"] = (loose.x, loose.y, loose.z)
        if start == "warm_carried":
            kwargs.update(step=factor * loose.step, primal_weight=loose.primal_weight)
    got = solve(lp, **kwargs)
    ref, _ = reference_solve(lp, **kwargs)
    for name in ("x", "y", "z"):
        assert _same_bits(getattr(got, name), getattr(ref, name)), name
    for name in ("iterations", "rejected_steps", "restarts", "step", "primal_weight",
                 "status", "primal_residual", "gap", "objective"):
        assert getattr(got, name) == getattr(ref, name), name
    # every step attempt costs K x and K^T y; the checks add more
    assert got.matvecs >= 2 * (got.iterations + got.rejected_steps)


def test_reference_restarts_to_the_average():
    # the explicit example of the property above takes this path
    pts = random_points(np.random.default_rng(5), 9, 2)
    lp = build(squared_distances(pts), 3, all_cuts(9, 2))
    _, to_average = reference_solve(lp, tol=1e-9)
    assert to_average > 0


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_private_csr_matvec_kernel_matches_matmul(index_dtype):
    # solve() calls scipy's private kernels into a zeroed buffer; they must
    # be what ``csr @ vector`` and ``csr.T @ vector`` run, bit for bit, for
    # either index width.  K^T v reads K's CSR arrays as K^T's CSC arrays,
    # and sums in the order csr_matvec takes over a transposed CSR copy.
    rng = np.random.default_rng(37)
    dense = rng.normal(size=(30, 20)) * (rng.random((30, 20)) < 0.3)
    dense[[0, 11, 29]] = 0.0  # empty rows, first and last among them
    dense[:, [0, 7, 19]] = 0.0  # empty columns, first and last among them
    for mat in (sp.csr_matrix(dense), sp.csr_matrix(dense).T.tocsr()):
        mat.indptr = mat.indptr.astype(index_dtype)
        mat.indices = mat.indices.astype(index_dtype)
        assert mat.indptr.dtype == index_dtype and mat.indices.dtype == index_dtype
        m, nv = mat.shape
        v = rng.normal(size=nv)
        out = np.full(m, np.nan)
        out.fill(0.0)
        csr_matvec(m, nv, mat.indptr, mat.indices, mat.data, v, out)
        assert _same_bits(out, mat @ v)
        w = rng.normal(size=m)
        out_t = np.full(nv, np.nan)
        out_t.fill(0.0)
        csc_matvec(nv, m, mat.indptr, mat.indices, mat.data, w, out_t)
        assert _same_bits(out_t, mat.T @ w)
        assert _same_bits(out_t, mat.T.tocsr() @ w)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(4, 8),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["none", "some", "all"]),
    st.booleans(),
)
def test_solve_leaves_the_lp_unchanged(n, k, seed, cuts, warm):
    # solve() stacks, negates and equilibrates its own copy of K: every array
    # of the LP reads as before, with and without cut rows
    rng = np.random.default_rng(seed)
    pool = all_cuts(n, 2)
    count = {"none": 0, "some": len(pool) // 3, "all": len(pool)}[cuts]
    lp = build(squared_distances(random_points(rng, n, 2)), k, pool[:count])
    assert (lp.q.shape[0] == 0) == (cuts == "none")

    def arrays():
        return [lp.c, lp.b_eq, lp.lb, lp.ub,
                *(getattr(mat, name) for mat in (lp.a_eq, lp.q)
                  for name in ("data", "indices", "indptr"))]

    before = [a.copy() for a in arrays()]
    start = solve(lp, tol=1e-2) if warm else None
    solve(lp, tol=1e-8, max_iters=200,
          warm=(start.x, start.y, start.z) if warm else None)
    for got, ref in zip(arrays(), before):
        assert _same_bits(got, ref)
