"""Cutting-plane driver: seeded upper bound, LP solves with safe lower
bounds, spectral rounding, slack-cut removal, separation with escalating set
sizes, and gap-based termination."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from lpkmeans.core import (
    Partition,
    PointSet,
    is_partition_matrix,
    kmeans_cost,
    lp_objective,
    partition_matrix,
    squared_distances,
    unpack_matrix,
)
from lpkmeans.heuristics import (
    LloydConfig,
    extract_support_partition,
    kmeanspp_lloyd,
    round_lp_solution,
    upper_bound_update,
)
from lpkmeans.lp_model import CutPool, active_cuts, build
from lpkmeans.separation import separate_exhaustive, separate_greedy
from lpkmeans.solver import safe_lower_bound, solve, tolerance_schedule

__all__ = ["SolveConfig", "RoundRecord", "SolveTrace", "gap", "solve_kmeans_lp"]


@dataclass(frozen=True)
class SolveConfig:
    k: int
    eps_opt: float = 1e-4
    eps_vio: float = 1e-6
    p_init: int | None = None  # default max(10 n, 2 n^2), see resolved()
    p_max: int | None = None  # default 5 n
    lp_time_limit: float | None = None
    t_start: int = 2
    t_cap: int | None = None  # largest |S| ever separated (default: K)
    escalation_threshold: int | None = None  # default n / 10
    seed: int = 0
    max_rounds: int = 200
    rounding_mode: str = "normalized"
    lloyd_restarts: int = 10
    lloyd_max_iters: int = 100
    # Cap on the working LP tolerance, which is otherwise 0.1 r_g (see
    # tolerance_schedule).  0.1 is the rule's value at the start bound
    # f_lb = 0 (r_g = 1), so round 1 (r_g = inf) starts there and later rounds
    # (f_lb >= 0, r_g <= 1) never reach the cap: loose early rounds buy cuts,
    # not digits.  The converged and the no-more-cuts decisions always run at
    # lp_tol_floor, and every bound comes from safe_lower_bound.
    lp_tol_start: float = 1e-1
    lp_tol_floor: float = 1e-8
    lp_max_iters: int = 400_000
    tight_tol: float = 1e-5
    drop_patience: int = 2  # consecutive slack rounds before a cut is dropped
    keep_pools: bool = False

    def __post_init__(self):
        if self.eps_opt <= 0:
            raise ValueError("eps_opt must be positive")
        if self.t_start < 2 or (self.k >= 2 and self.t_start > self.k):
            raise ValueError("need 2 <= t_start <= K")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    def resolved(self, n: int) -> tuple[int, int, int]:
        # an initial pool of O(n) rows cannot support the optimal vertex (the
        # basis needs ~n^2/2 active rows), so the loop would grind through
        # dozens of separation rounds; 2 n^2 sampled tight cuts give one- to
        # few-round convergence
        p_init = self.p_init if self.p_init is not None else max(10 * n, 2 * n * n)
        p_max = self.p_max if self.p_max is not None else 5 * n
        esc = self.escalation_threshold if self.escalation_threshold is not None else max(1, n // 10)
        return p_init, p_max, esc


@dataclass
class RoundRecord:
    index: int
    f_lb: float
    f_ub: float
    r_g: float
    safe_bound: float
    lp_status: str
    lp_tol: float
    lp_iterations: int
    t_max: int
    pool_size: int
    cuts_removed: int
    cuts_added: int
    violated_found: int
    exhaustive: bool
    time_solve: float
    time_round: float
    time_separate: float
    pool_snapshot: CutPool | None = None
    solution: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass
class SolveTrace:
    n: int
    k: int
    rounds: list[RoundRecord] = field(default_factory=list)
    status: str = "running"  # converged | no_more_cuts | max_rounds | lp_failure
    tight: bool = False
    f_lb: float = -np.inf
    f_ub: float = np.inf
    r_g: float = np.inf
    total_time: float = 0.0
    time_init: float = 0.0

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def gap(f_ub: float, f_lb: float, tol: float = 1e-12) -> float:
    """Relative optimality gap (f_ub - f_lb) / f_ub; at f_ub = 0 the gap is 0
    whenever f_lb is not meaningfully negative."""
    if f_ub == 0.0:
        return 0.0 if f_lb >= -tol else np.inf
    return (f_ub - f_lb) / f_ub


def _age_cuts(
    pool: CutPool, x_lb: np.ndarray, eps_act: float, ages: np.ndarray, patience: int
) -> tuple[np.ndarray, np.ndarray]:
    """Age-based removal: a cut leaves the pool once it has been slack at the
    solution of ``patience`` consecutive rounds.  Immediate removal (patience
    one, the textbook rule) can cycle between vertex pools of equal value.

    ``ages`` counts the consecutive slack rounds of every pool row.  Returns
    the mask of rows kept and the updated ages of the kept rows.
    """
    slack = ~(np.abs(pool.violations(x_lb)) <= eps_act)
    age = np.where(slack, ages + 1, 0)
    keep = ~slack | (age < patience)
    return keep, age[keep]


def solve_kmeans_lp(points: PointSet, cfg: SolveConfig) -> tuple[Partition, SolveTrace, bool]:
    """Run the iterative relaxation until the gap closes or no violated
    inequality remains; returns (incumbent partition, trace, tight flag)."""
    t_begin = time.monotonic()
    n = points.n
    k = cfg.k
    if not (2 <= k <= n):
        raise ValueError(f"need 2 <= K <= n, got K={k}, n={n}")
    p_init, p_max, escalation = cfg.resolved(n)
    t_limit = min(k, cfg.t_cap) if cfg.t_cap is not None else k
    d = squared_distances(points)
    trace = SolveTrace(n=n, k=k)

    lloyd_cfg = LloydConfig(
        max_iters=cfg.lloyd_max_iters, restarts=cfg.lloyd_restarts, seed=cfg.seed
    )
    incumbent = kmeanspp_lloyd(points, k, lloyd_cfg)
    pool = active_cuts(partition_matrix(incumbent[0]), 2, cap=p_init, seed=cfg.seed)
    trace.time_init = time.monotonic() - t_begin

    f_lb = 0.0  # c >= 0 and x >= 0, so 0 is a valid bound
    r_g = np.inf
    t_max = cfg.t_start
    warm = None
    step = primal_weight = None  # PDHG state carried with every warm start
    forced_tol: float | None = None
    tol_ceiling = cfg.lp_tol_start  # ratchets down whenever the bound stalls
    slack_ages = np.zeros(len(pool), dtype=np.int64)  # aligned to the pool rows
    lp = None
    x_lb = None

    for round_idx in range(1, cfg.max_rounds + 1):
        lp = build(d, k, pool, base=lp)
        if forced_tol is not None:
            lp_tol = forced_tol
        else:
            lp_tol = min(
                tol_ceiling, tolerance_schedule(r_g, cfg.lp_tol_start, cfg.lp_tol_floor)
            )
        tol_ceiling = min(tol_ceiling, lp_tol)
        forced_tol = None

        t0 = time.monotonic()
        sol = solve(
            lp, tol=lp_tol, time_limit=cfg.lp_time_limit, max_iters=cfg.lp_max_iters,
            warm=warm, step=step, primal_weight=primal_weight,
        )
        time_solve = time.monotonic() - t0
        step, primal_weight = sol.step, sol.primal_weight
        if sol.status == "numerical_failure":
            trace.status = "lp_failure"
            break

        fbar = safe_lower_bound(lp, sol)
        bound_stalled = fbar <= f_lb + 1e-7 * (1.0 + abs(f_lb))
        f_lb = max(f_lb, fbar)
        x_lb = unpack_matrix(sol.x, n)

        t0 = time.monotonic()
        candidate = round_lp_solution(x_lb, points, k, lloyd_cfg, mode=cfg.rounding_mode)
        incumbent = upper_bound_update(incumbent, candidate)
        time_round = time.monotonic() - t0
        f_ub = incumbent[1]
        r_g = gap(f_ub, f_lb)

        record = RoundRecord(
            index=round_idx,
            f_lb=f_lb,
            f_ub=f_ub,
            r_g=r_g,
            safe_bound=fbar,
            lp_status=sol.status,
            lp_tol=lp_tol,
            lp_iterations=sol.iterations,
            t_max=t_max,
            pool_size=len(pool),
            cuts_removed=0,
            cuts_added=0,
            violated_found=0,
            exhaustive=False,
            time_solve=time_solve,
            time_round=time_round,
            time_separate=0.0,
            pool_snapshot=CutPool(pool) if cfg.keep_pools else None,
            solution=(sol.x, sol.y, sol.z) if cfg.keep_pools else None,
        )
        trace.rounds.append(record)

        if r_g <= cfg.eps_opt:
            if lp_tol > cfg.lp_tol_floor:
                # confirm at full accuracy before reporting tightness
                forced_tol = cfg.lp_tol_floor
                warm = (sol.x, sol.y, sol.z)
                continue
            trace.status = "converged"
            break

        # eps_act = 20 lp_tol: 2 at lp_tol = 0.1, the largest |w| of a pair cut on [0, 1]
        kept_rows, kept_ages = _age_cuts(
            pool, x_lb, max(1e-8, 20.0 * lp_tol), slack_ages, cfg.drop_patience
        )

        t0 = time.monotonic()
        report = separate_greedy(x_lb, t_max, cfg.eps_vio)
        if not report.cuts and t_max < t_limit:
            t_max += 1
            report = separate_greedy(x_lb, t_max, cfg.eps_vio)
        if not report.cuts and t_max >= t_limit:
            if lp_tol > cfg.lp_tol_floor:
                # apparent optimality at loose accuracy: tighten, re-solve the
                # unchanged pool, and stay at full accuracy for the endgame
                record.time_separate = time.monotonic() - t0
                forced_tol = cfg.lp_tol_floor
                tol_ceiling = cfg.lp_tol_floor
                warm = (sol.x, sol.y, sol.z)
                continue
            report = separate_exhaustive(x_lb, min(t_max, t_limit), cfg.eps_vio, cap=p_max)
            record.exhaustive = True
        record.time_separate = time.monotonic() - t0
        record.violated_found = len(report.cuts)

        if not report.cuts:
            trace.status = "no_more_cuts"
            break
        kept = pool.take(kept_rows)
        record.cuts_removed = len(pool) - len(kept)
        added = kept.extend(report.cuts.take(report.order()), limit=p_max)
        slack_ages = np.concatenate([kept_ages, np.zeros(added, dtype=np.int64)])
        record.cuts_added = added

        if record.violated_found < escalation:
            t_max = min(t_limit, t_max + 1)
        if bound_stalled or added == 0:
            # working accuracy must outrun the separation noise or the pool
            # just churns; ratchet the tolerance down on stalled progress
            tol_ceiling = max(cfg.lp_tol_floor, 0.1 * tol_ceiling)

        # a cut keeps its dual, also one dropped and separated again
        old_rows = pool.lookup(kept)
        z0 = np.zeros(len(kept))
        z0[old_rows >= 0] = sol.z[old_rows[old_rows >= 0]]
        warm = (sol.x, sol.y, z0)
        pool = kept
    else:
        trace.status = "max_rounds"

    if trace.status in ("converged", "no_more_cuts") and x_lb is not None:
        if is_partition_matrix(x_lb, k, tol=cfg.tight_tol):
            extracted = extract_support_partition(x_lb)
            if extracted is not None and extracted.k == k:
                value = lp_objective(x_lb, d)
                cost = kmeans_cost(points, extracted)
                if abs(value - cost) <= 1e-6 * (1.0 + abs(value)):
                    trace.tight = True
                    incumbent = upper_bound_update(incumbent, (extracted, cost))

    trace.f_lb = f_lb
    trace.f_ub = incumbent[1]
    trace.r_g = gap(trace.f_ub, trace.f_lb)
    trace.total_time = time.monotonic() - t_begin
    return incumbent[0], trace, trace.tight
