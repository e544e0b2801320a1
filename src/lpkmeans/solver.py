"""Restarted primal-dual hybrid gradient solver for the packed clustering LPs.

The solver works on the saddle form min_x max_y c.x - y.(Kx - q) with the box
[lb, ub] kept implicit, K stacking the equality rows over the (negated) cut
rows.  Because every variable carries finite bounds, any dual vector yields a
valid lower bound through the box multipliers; :func:`safe_lower_bound`
exposes that bound, which holds no matter how early the iteration stopped.

Steps follow PDLP's adaptive rule (Applegate et al., arXiv:2106.04756,
section 3.1) rather than a fixed fraction of the operator norm, so no solve
estimates that norm.  A solve returns its last step and primal weight, and a
warm start from a related LP may pass them back in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from lpkmeans.lp_model import LpStandardForm

__all__ = [
    "LpSolution",
    "solve",
    "safe_lower_bound",
    "operator_norm_estimate",
    "tolerance_schedule",
]

_EPS = 1e-12


@dataclass
class LpSolution:
    """Primal-dual pair with truthful relative residuals.

    ``y`` holds the equality duals, ``z`` the cut duals in the <=-row
    convention (componentwise <= 0, clamped on return).  ``iterations``
    counts accepted PDHG steps and ``rejected_steps`` the step attempts the
    adaptive rule turned down.  ``step`` and ``primal_weight`` are the step
    the next iteration would take and the primal weight, both in the
    solver's scaled space; a warm start may pass them back to :func:`solve`.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    primal_residual: float
    gap: float
    status: str
    iterations: int
    objective: float
    step: float
    primal_weight: float
    rejected_steps: int


def tolerance_schedule(r_g: float, start: float, floor: float) -> float:
    """Working LP tolerance for the cutting loop: 0.1 r_g, so loose while the
    optimality gap is large and tightened geometrically as it shrinks, capped
    at ``start`` and held at or above ``floor``.  The loop decides tightness
    and runs its exhaustive separation only after a solve at ``floor``."""
    if not np.isfinite(r_g):
        return start
    return float(min(start, max(floor, 0.1 * r_g)))


def operator_norm_estimate(lp: LpStandardForm) -> float:
    """Spectral norm of the stacked constraint matrix, within ~2 percent:
    power iteration on M^T M from a deterministic start."""
    mat = lp.stacked()
    mat_t = mat.T.tocsr()
    m, nv = mat.shape
    if m == 0 or nv == 0:
        return 0.0
    rng = np.random.Generator(np.random.Philox(0x5EED_0001))
    v = rng.standard_normal(nv)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(2000):
        w = mat_t @ (mat @ v)
        norm = np.linalg.norm(w)
        if norm <= _EPS:
            return 0.0
        new_sigma = math.sqrt(norm)
        v = w / norm
        if abs(new_sigma - sigma) <= 1e-7 * max(new_sigma, _EPS):
            return new_sigma
        sigma = new_sigma
    return sigma


def safe_lower_bound(lp: LpStandardForm, sol: LpSolution) -> float:
    """y.b - r.ub with r = max(A^T y + Q^T z - c, 0); valid for any y, z <= 0."""
    z = np.minimum(sol.z, 0.0)
    grad = lp.a_eq.T @ sol.y
    if lp.q.shape[0]:
        grad = grad + lp.q.T @ z
    r = np.maximum(grad - lp.c, 0.0)
    return float(sol.y @ lp.b_eq - r @ lp.ub)


def _ruiz_and_pock_chambolle(kmat: sp.csr_matrix, ruiz_iters: int = 8,
                             alpha: float = 1.0) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Diagonal equilibration; returns (scaled matrix, row scale, col scale)
    with scaled = diag(dr) @ K @ diag(dc).

    The scaling works on the CSR arrays in place.  Row reductions are
    ``reduceat`` over the non-empty rows and column reductions are ``at``
    in storage order, as scipy's own sparse ``max``/``sum`` compute them,
    so the result is bit for bit that of the sparse diagonal products."""
    m, nv = kmat.shape
    dr = np.ones(m)
    dc = np.ones(nv)
    k = kmat.tocsr(copy=True)
    k.eliminate_zeros()  # as the diagonal products would
    starts = k.indptr[:-1]
    nonempty = np.diff(k.indptr) > 0
    rows = np.repeat(np.arange(m), np.diff(k.indptr))

    def rescale(op, row_vals, col_vals, root):
        row_red = np.zeros(m)
        row_red[nonempty] = op.reduceat(row_vals, starts[nonempty])
        col_red = np.zeros(nv)
        op.at(col_red, k.indices, col_vals)
        rs = 1.0 / root(np.maximum(row_red, _EPS))
        cs = 1.0 / root(np.maximum(col_red, _EPS))
        rs[row_red <= _EPS] = 1.0
        cs[col_red <= _EPS] = 1.0
        np.multiply(k.data, rs[rows], out=k.data)
        np.multiply(k.data, cs[k.indices], out=k.data)
        np.multiply(dr, rs, out=dr)
        np.multiply(dc, cs, out=dc)

    for _ in range(ruiz_iters):
        absk = np.abs(k.data)
        rescale(np.maximum, absk, absk, np.sqrt)
    if alpha > 0:
        absk = np.abs(k.data)
        rescale(np.add, absk**alpha, absk ** (2.0 - alpha), lambda v: np.sqrt(np.sqrt(v)))
    return k, dr, dc


def _kkt_measures(lp: LpStandardForm, kmat: sp.csr_matrix, kmat_t: sp.csr_matrix,
                  q: np.ndarray, me: int, x: np.ndarray, yin: np.ndarray):
    """Relative primal residual and gap on the original data.  The boxes are
    finite, so bound multipliers absorb the reduced cost exactly and the dual
    residual is zero by construction."""
    kx = kmat @ x
    res = q - kx
    res[me:] = np.maximum(res[me:], 0.0)  # >=-form rows: only shortfall counts
    pr = np.linalg.norm(res) / (1.0 + np.linalg.norm(lp.b_eq))
    reduced = lp.c - kmat_t @ yin
    pobj = float(lp.c @ x)
    dobj = float(yin[:me] @ lp.b_eq + np.minimum(reduced, 0.0) @ lp.ub)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return pr, gap, pobj, dobj


def solve(
    lp: LpStandardForm,
    tol: float = 1e-8,
    time_limit: float | None = None,
    max_iters: int = 400_000,
    warm: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    scaling: bool = True,
    step: float | None = None,
    primal_weight: float | None = None,
) -> LpSolution:
    """Run restarted PDHG until the relative KKT error drops below ``tol``.

    Returns the best iterate with truthful residuals when the iteration or
    time budget runs out instead.  ``warm`` takes (x, y, z) from a previous
    solution of a related LP, ``step`` and ``primal_weight`` that solution's
    ``step`` and ``primal_weight``.  Without them the solve starts from
    1 / max|K| and ||c|| / ||q|| on the scaled data.
    """
    t0 = time.monotonic()
    nv = lp.n_vars
    me = lp.a_eq.shape[0]
    mi = lp.q.shape[0]

    # internal >=-form: rows [A; -Q], rhs [b; 0], duals free / >= 0
    if mi:
        k_orig = sp.vstack([lp.a_eq, -lp.q], format="csr")
    else:
        k_orig = lp.a_eq
    k_orig_t = k_orig.T.tocsr()
    q_rhs = np.concatenate([lp.b_eq, np.zeros(mi)])

    if scaling:
        k_s, dr, dc = _ruiz_and_pock_chambolle(k_orig)
    else:
        k_s, dr, dc = k_orig, np.ones(me + mi), np.ones(nv)
    k_s_t = k_s.T.tocsr()
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

    def proj_y(y: np.ndarray) -> np.ndarray:
        y[me:] = np.maximum(y[me:], 0.0)
        return y

    def restart_error(xv: np.ndarray, yv: np.ndarray, w: float) -> float:
        # weighted squared KKT error in the scaled space
        res = q_s - k_s @ xv
        res[me:] = np.maximum(res[me:], 0.0)
        reduced = c_s - k_s_t @ yv
        pobj = float(c_s @ xv)
        dobj = float(yv @ q_s + np.minimum(reduced, 0.0) @ ub_s)
        return (w * w) * float(res @ res) + (pobj - dobj) ** 2

    def finalize(xv: np.ndarray, yv: np.ndarray, status: str, iters: int) -> LpSolution:
        x_u = xv * dc
        y_u = yv * dr
        pr, gap, pobj, _ = _kkt_measures(lp, k_orig, k_orig_t, q_rhs, me, x_u, y_u)
        z = -np.maximum(y_u[me:], 0.0)
        return LpSolution(
            x=x_u, y=y_u[:me], z=z,
            primal_residual=pr, gap=gap,
            status=status, iterations=iters, objective=pobj,
            step=eta, primal_weight=omega, rejected_steps=rejected,
        )

    check_every = 64
    beta_sufficient = 0.2
    beta_necessary = 0.8
    beta_artificial = 0.36
    smoothing = 0.5

    iterations = 0
    rejected = 0
    x_prev_restart, y_prev_restart = x.copy(), yin.copy()
    kty = k_s_t @ yin

    while True:
        err_at_restart = restart_error(x, yin, omega)
        x_bar = x.copy()
        y_bar = yin.copy()
        step_sum = 0.0  # of the accepted steps since the restart
        inner = 0
        err_candidate_prev = np.inf
        while True:
            # adaptive step: try eta, accept it when eta <= eta_bar, the
            # largest step the local interaction term admits; the next
            # step (or the retry) is eta_next either way
            k_acc = iterations + 1
            shrink = 1.0 - (k_acc + 1) ** -0.3
            grow = 1.0 + (k_acc + 1) ** -0.6
            while True:
                x_new = np.clip(x - (eta / omega) * (c_s - kty), lb_s, ub_s)
                y_new = proj_y(yin + (eta * omega) * (q_s - k_s @ (2.0 * x_new - x)))
                kty_new = k_s_t @ y_new
                dx = x_new - x
                dy = y_new - yin
                interaction = abs(float(dx @ (kty_new - kty)))
                movement = omega * float(dx @ dx) + float(dy @ dy) / omega
                eta_bar = movement / (2.0 * interaction) if interaction > 0.0 else math.inf
                eta_next = grow * eta
                if shrink * eta_bar < eta_next:  # false for an infinite or NaN eta_bar
                    eta_next = shrink * eta_bar
                if not eta > eta_bar:  # a NaN eta_bar accepts; the finite check stops it
                    break
                rejected += 1
                eta = eta_next
            x, yin, kty = x_new, y_new, kty_new
            inner += 1
            iterations += 1
            step_sum += eta
            x_bar += (eta / step_sum) * (x - x_bar)
            y_bar += (eta / step_sum) * (yin - y_bar)
            eta = eta_next

            if iterations % check_every and iterations < max_iters:
                continue

            if not (np.isfinite(x).all() and np.isfinite(yin).all()):
                return finalize(x_prev_restart, y_prev_restart, "numerical_failure", iterations)

            # termination on the original problem, for current and averaged
            for xv, yv in ((x, yin), (x_bar, y_bar)):
                pr, gap, _, _ = _kkt_measures(
                    lp, k_orig, k_orig_t, q_rhs, me, xv * dc, yv * dr
                )
                if max(pr, gap) <= tol:
                    return finalize(xv, yv, "optimal_to_tol", iterations)

            if iterations >= max_iters:
                err_cur = restart_error(x, yin, omega)
                err_avg = restart_error(x_bar, y_bar, omega)
                xv, yv = (x, yin) if err_cur <= err_avg else (x_bar, y_bar)
                return finalize(xv, yv, "iteration_limit", iterations)
            if time_limit is not None and time.monotonic() - t0 >= time_limit:
                err_cur = restart_error(x, yin, omega)
                err_avg = restart_error(x_bar, y_bar, omega)
                xv, yv = (x, yin) if err_cur <= err_avg else (x_bar, y_bar)
                return finalize(xv, yv, "time_limit", iterations)

            err_cur = restart_error(x, yin, omega)
            err_avg = restart_error(x_bar, y_bar, omega)
            if err_cur <= err_avg:
                err_candidate, cand_x, cand_y = err_cur, x, yin
            else:
                err_candidate, cand_x, cand_y = err_avg, x_bar, y_bar

            do_restart = (
                err_candidate <= (beta_sufficient**2) * err_at_restart
                or (
                    err_candidate <= (beta_necessary**2) * err_at_restart
                    and err_candidate > err_candidate_prev
                )
                or inner >= beta_artificial * iterations
            )
            err_candidate_prev = err_candidate
            if do_restart:
                if cand_y is y_bar:
                    kty = k_s_t @ y_bar
                x = cand_x.copy()
                yin = cand_y.copy()
                break

        dx = np.linalg.norm(x - x_prev_restart)
        dy = np.linalg.norm(yin - y_prev_restart)
        if dx > _EPS and dy > _EPS:
            omega = float(np.clip(
                (dy / dx) ** smoothing * omega ** (1.0 - smoothing), 1e-4, 1e4
            ))
        x_prev_restart, y_prev_restart = x.copy(), yin.copy()
