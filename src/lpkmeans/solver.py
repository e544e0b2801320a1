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
from typing import TYPE_CHECKING

import numpy as np

from lpkmeans.lp_model import LpStandardForm

# scipy.sparse is imported in solve; see lpkmeans.lp_model
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["LpSolution", "solve", "safe_lower_bound"]

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
    ``restarts`` counts PDHG restarts and ``matvecs`` the products with K or
    K^T that the solve ran, its checks included.
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
    restarts: int
    matvecs: int


def _gamma(p: int) -> float:
    """Higham's gamma_p = p u / (1 - p u), u = 2^-53: the relative error bound
    of a p-term floating-point sum or dot product."""
    pu = p * 2.0**-53
    return pu / (1.0 - pu)


def safe_lower_bound(lp: LpStandardForm, sol: LpSolution) -> float:
    """y.b - r.ub - e with r = max(A^T y + Q^T z - c, 0); valid for any y, z <= 0.

    e = 2 [gamma_m |y|.|b| + gamma_nv r.ub + gamma_(p+2) (|A|^T |y| + |Q|^T |z|).ub]
    bounds the rounding error of the evaluation (Neumaier & Shcherbina, Math.
    Programming 99, 2004), m being the equality rows and p the largest column
    count of [A; Q], so the bound holds as computed, also where y.b and r.ub
    cancel."""
    y, z = sol.y, np.minimum(sol.z, 0.0)
    grad = lp.a_eq.T @ y + lp.q.T @ z  # no cut rows: + 0.0, exact
    r = np.maximum(grad - lp.c, 0.0)
    p = int((np.bincount(lp.a_eq.indices, minlength=lp.n_vars)
             + np.bincount(lp.q.indices, minlength=lp.n_vars)).max())
    magnitude = abs(lp.a_eq).T @ np.abs(y) + abs(lp.q).T @ np.abs(z)
    err = 2.0 * (
        _gamma(lp.a_eq.shape[0]) * (np.abs(y) @ np.abs(lp.b_eq))
        + _gamma(lp.n_vars) * (r @ lp.ub) + _gamma(p + 2) * (magnitude @ lp.ub)
    )
    return float(y @ lp.b_eq - r @ lp.ub - err)


def _pock_chambolle(k: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Pock-Chambolle equilibration (alpha = 1) of ``k`` in place, its explicit
    zeros dropped: K becomes diag(dr) K diag(dc), dr and dc one over the
    fourth roots of the row and column sums of |K|, and (dr, dc) is returned.
    The sums run as scipy's sparse ``sum`` runs them (``reduceat`` over the
    non-empty rows, ``at`` in storage order), bit for bit the diagonal
    products.  PDLP's Ruiz passes would scale every LP built here by ones."""
    m, nv = k.shape
    k.eliminate_zeros()  # as the diagonal products would
    absk = np.abs(k.data)
    nonempty = np.diff(k.indptr) > 0
    row_sum = np.zeros(m)
    row_sum[nonempty] = np.add.reduceat(absk, k.indptr[:-1][nonempty])
    col_sum = np.zeros(nv)
    np.add.at(col_sum, k.indices, absk)
    dr = 1.0 / np.sqrt(np.sqrt(np.maximum(row_sum, _EPS)))
    dc = 1.0 / np.sqrt(np.sqrt(np.maximum(col_sum, _EPS)))
    dr[row_sum <= _EPS] = 1.0
    dc[col_sum <= _EPS] = 1.0
    np.multiply(k.data, np.repeat(dr, np.diff(k.indptr)), out=k.data)
    np.multiply(k.data, dc[k.indices], out=k.data)
    return dr, dc


def solve(
    lp: LpStandardForm,
    tol: float = 1e-8,
    time_limit: float | None = None,
    max_iters: int = 400_000,
    warm: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
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
    import scipy.sparse as sp
    # the kernels behind csr @ vector and csc @ vector
    from scipy.sparse._sparsetools import csc_matvec, csr_matvec

    t0 = time.monotonic()
    nv = lp.n_vars
    me = lp.a_eq.shape[0]
    mi = lp.q.shape[0]
    m = me + mi

    # internal >=-form: rows [A; -Q], rhs [b; 0], duals free / >= 0.  The
    # solve holds one copy of K, its own, equilibrated in place; its CSR
    # arrays are the CSC arrays of K^T, so no transpose is built.
    k_s = sp.vstack([lp.a_eq, lp.q], format="csr")
    np.negative(k_s.data[k_s.indptr[me]:], out=k_s.data[k_s.indptr[me]:])
    q_rhs = np.concatenate([lp.b_eq, np.zeros(mi)])

    dr, dc = _pock_chambolle(k_s)
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
        yin = np.zeros(m)

    # Every vector the iterations write is allocated here, once.  The
    # accepted iterate (x, yin, kty = K^T yin) and the candidate step
    # (x_new, y_new, kty_new) trade buffers on acceptance; dx, dy and dk
    # also hold the step's intermediates and the sums' increments.  The
    # averages are kept as step-weighted sums, x_sum and y_sum, and divided
    # out only at the checks, into the free x_new and y_new.  Between steps
    # dy and dk are free, and the checks keep K x and K^T y_bar there.
    x_new, dx, dk, kty, kty_new, x_sum = (np.empty(nv) for _ in range(6))
    y_new, dy, y_sum = np.empty(m), np.empty(m), np.empty(m)
    kx, kty_bar = dy, dk
    x_prev_restart, y_prev_restart = x.copy(), yin.copy()
    res, reduced = np.empty(m), np.empty(nv)  # for the checks
    q_eq = q_s[:me]  # the cut rows of q are zero
    matvecs = 0

    def k_add(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        # out += K v through the kernel that ``@`` runs, which sums each row
        # of K v onto what ``out`` holds
        nonlocal matvecs
        matvecs += 1
        csr_matvec(m, nv, k_s.indptr, k_s.indices, k_s.data, v, out)
        return out

    def k_dot(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        return k_add(v, out)

    def kt_dot(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        # out = K^T v, reading K's CSR arrays as the CSC arrays of K^T: the
        # same sums in the same order as csr_matvec over K^T in CSR form
        nonlocal matvecs
        matvecs += 1
        out.fill(0.0)
        csc_matvec(nv, m, k_s.indptr, k_s.indices, k_s.data, v, out)
        return out

    def restart_error(xv: np.ndarray, yv: np.ndarray, w: float,
                      kxv: np.ndarray, ktyv: np.ndarray) -> float:
        # weighted squared KKT error in the scaled space, from kxv = K xv
        # and ktyv = K^T yv
        np.subtract(q_s, kxv, out=res)
        np.maximum(res[me:], 0.0, out=res[me:])
        np.subtract(c_s, ktyv, out=reduced)
        pobj = float(c_s @ xv)
        dobj = float(yv @ q_s + np.minimum(reduced, 0.0, out=reduced) @ ub_s)
        return (w * w) * float(res @ res) + (pobj - dobj) ** 2

    def kkt(xv: np.ndarray, yv: np.ndarray, kxv: np.ndarray, ktyv: np.ndarray) -> tuple:
        """Relative primal residual and gap on the original data, with the
        primal objective and the unscaled pair, from the scaled products
        kxv = K xv and ktyv = K^T yv: the unscaled pair has K_u x_u = kxv / dr
        and K_u^T y_u = ktyv / dc.  The boxes are finite, so bound multipliers
        absorb the reduced cost exactly and the dual residual is zero by
        construction."""
        x_u = xv * dc
        y_u = yv * dr
        np.divide(kxv, dr, out=res)
        np.subtract(q_rhs, res, out=res)
        np.maximum(res[me:], 0.0, out=res[me:])  # >=-form rows: only shortfall counts
        pr = np.linalg.norm(res) / (1.0 + np.linalg.norm(lp.b_eq))
        np.divide(ktyv, dc, out=reduced)
        np.subtract(lp.c, reduced, out=reduced)
        pobj = float(lp.c @ x_u)
        dobj = float(y_u[:me] @ lp.b_eq + np.minimum(reduced, 0.0, out=reduced) @ lp.ub)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return pr, gap, pobj, x_u, y_u

    def finalize(measures: tuple, status: str) -> LpSolution:
        pr, gap, pobj, x_u, y_u = measures
        return LpSolution(
            x=x_u, y=y_u[:me], z=-np.maximum(y_u[me:], 0.0),
            primal_residual=pr, gap=gap,
            status=status, iterations=iterations, objective=pobj,
            step=eta, primal_weight=omega, rejected_steps=rejected,
            restarts=restarts, matvecs=matvecs,
        )

    check_every = 64
    beta_sufficient = 0.2
    beta_necessary = 0.8
    beta_artificial = 0.36
    smoothing = 0.5

    iterations = 0
    rejected = 0
    restarts = 0
    kt_dot(yin, kty)

    while True:
        err_at_restart = restart_error(x, yin, omega, k_dot(x, kx), kty)
        x_sum.fill(0.0)
        y_sum.fill(0.0)
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
                # x_new = clip(x - (eta / omega) (c - K^T y), lb, ub)
                np.subtract(c_s, kty, out=dx)
                np.multiply(eta / omega, dx, out=dx)
                np.subtract(x, dx, out=dx)
                # np.clip, bit for bit: the two differ only where -0.0 meets
                # a bound of +0.0, and x - s t is -0.0 only where x is
                np.maximum(dx, lb_s, out=dx)
                np.minimum(dx, ub_s, out=x_new)
                # y_new = proj(y + s q + K v), s = eta omega, v = s (x - 2 x_new):
                # a copy of y whose equality rows gain s q (the cut rows of q
                # are 0), onto which the kernel adds K v row by row
                s = eta * omega
                np.multiply(2.0, x_new, out=dx)
                np.subtract(x, dx, out=dx)
                np.multiply(s, dx, out=dx)
                np.copyto(y_new, yin)
                y_new[:me] += s * q_eq
                k_add(dx, y_new)
                np.maximum(y_new[me:], 0.0, out=y_new[me:])
                kt_dot(y_new, kty_new)
                np.subtract(x_new, x, out=dx)
                np.subtract(y_new, yin, out=dy)
                np.subtract(kty_new, kty, out=dk)
                interaction = abs(float(dx @ dk))
                movement = omega * float(dx @ dx) + float(dy @ dy) / omega
                eta_bar = movement / (2.0 * interaction) if interaction > 0.0 else math.inf
                eta_next = grow * eta
                if shrink * eta_bar < eta_next:  # false for an infinite or NaN eta_bar
                    eta_next = shrink * eta_bar
                if not eta > eta_bar:  # a NaN eta_bar accepts; the finite check stops it
                    break
                rejected += 1
                eta = eta_next
            x, x_new = x_new, x
            yin, y_new = y_new, yin
            kty, kty_new = kty_new, kty
            inner += 1
            iterations += 1
            # the running sums x_sum += eta x and y_sum += eta y; an accepted
            # step passes over the dual vector six times: the copy, the
            # projection, dy, dy.dy and the sum's two
            step_sum += eta
            np.multiply(eta, x, out=dx)
            np.add(x_sum, dx, out=x_sum)
            np.multiply(eta, yin, out=dy)
            np.add(y_sum, dy, out=y_sum)
            eta = eta_next

            if iterations % check_every and iterations < max_iters:
                continue

            if not (np.isfinite(x).all() and np.isfinite(yin).all()):
                failed = kkt(x_prev_restart, y_prev_restart, k_dot(x_prev_restart, kx),
                             kt_dot(y_prev_restart, kty_bar))
                return finalize(failed, "numerical_failure")

            # termination on the original problem, for current and averaged;
            # each pair's products serve its restart error too
            current = kkt(x, yin, k_dot(x, kx), kty)
            if max(current[:2]) <= tol:
                return finalize(current, "optimal_to_tol")
            err_cur = restart_error(x, yin, omega, kx, kty)
            x_bar = np.divide(x_sum, step_sum, out=x_new)
            y_bar = np.divide(y_sum, step_sum, out=y_new)
            average = kkt(x_bar, y_bar, k_dot(x_bar, kx), kt_dot(y_bar, kty_bar))
            if max(average[:2]) <= tol:
                return finalize(average, "optimal_to_tol")
            err_avg = restart_error(x_bar, y_bar, omega, kx, kty_bar)
            use_current = err_cur <= err_avg
            if iterations >= max_iters:
                return finalize(current if use_current else average, "iteration_limit")
            if time_limit is not None and time.monotonic() - t0 >= time_limit:
                return finalize(current if use_current else average, "time_limit")

            err_candidate = err_cur if use_current else err_avg
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
                restarts += 1
                if not use_current:  # restart to the average
                    np.copyto(x, x_bar)
                    np.copyto(yin, y_bar)
                    np.copyto(kty, kty_bar)
                break

        dx_norm = np.linalg.norm(np.subtract(x, x_prev_restart, out=dx))
        dy_norm = np.linalg.norm(np.subtract(yin, y_prev_restart, out=dy))
        if dx_norm > _EPS and dy_norm > _EPS:
            omega = float(np.clip(
                (dy_norm / dx_norm) ** smoothing * omega ** (1.0 - smoothing), 1e-4, 1e4
            ))
        np.copyto(x_prev_restart, x)
        np.copyto(y_prev_restart, yin)
