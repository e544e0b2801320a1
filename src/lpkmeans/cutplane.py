"""Cutting-plane driver: seeded upper bound, the two-cluster pairwise check
of the seed at K = 2, LP solves with safe lower bounds, spectral rounding,
slack-cut removal, separation with escalating set sizes, and gap-based
termination."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from lpkmeans.certify import proximity_check
from lpkmeans.core import (
    Partition,
    PointSet,
    is_partition_matrix,
    kmeans_cost,
    lp_objective,
    rounding_gamma,
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
from lpkmeans.lp_model import active_cuts, build
from lpkmeans.separation import SeparationLimit, separate_exhaustive, separate_greedy
from lpkmeans.solver import safe_lower_bound, solve

__all__ = ["SolveConfig", "RoundRecord", "SolveTrace", "gap", "solve_kmeans_lp"]

_LP_MAX_ITERS = 400_000  # PDHG iterations per LP solve
_TIGHT_TOL = 1e-5  # entrywise tolerance of the final partition-matrix test
_DROP_PATIENCE = 2  # consecutive slack rounds before a cut is dropped
# The working LP tolerance is a running minimum of 0.1 r_g, held at or above
# the floor.  It starts at 0.1, the rule's value at the start bound f_lb = 0
# (r_g = 1): loose early rounds buy cuts, not digits.  It falls tenfold on a
# stalled bound, and the converged and no-more-cuts decisions always run at
# the floor.  Every LP's bound comes from safe_lower_bound, whatever the
# tolerance; a K = 2 seed that the pairwise check certifies needs no LP.
_LP_TOL_START = 1e-1
_LP_TOL_FLOOR = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    k: int
    eps_opt: float = 1e-4
    eps_vio: float = 1e-6
    p_init: int | None = None  # default 2 n^2, see resolved()
    p_max: int | None = None  # default 5 n
    lp_time_limit: float | None = None
    t_cap: int | None = None  # largest |S| ever separated (default: K)
    seed: int = 0
    max_rounds: int = 200

    def __post_init__(self):
        if not self.eps_opt > 0:  # NaN too
            raise ValueError("eps_opt must be positive")
        if not self.eps_vio >= 0:
            raise ValueError("eps_vio must be >= 0")
        if self.p_init is not None and self.p_init < 0:
            raise ValueError("p_init must be >= 0")
        if self.p_max is not None and self.p_max < 0:
            raise ValueError("p_max must be >= 0")
        if self.lp_time_limit is not None and not self.lp_time_limit > 0:
            raise ValueError("lp_time_limit must be positive")
        if self.t_cap is not None and self.t_cap < 2:
            raise ValueError("t_cap must be >= 2")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    def resolved(self, n: int) -> tuple[int, int, int]:
        # an initial pool of O(n) rows cannot support the optimal vertex (the
        # basis needs ~n^2/2 active rows), so the loop would grind through
        # dozens of separation rounds; 2 n^2 sampled tight cuts give one- to
        # few-round convergence
        p_init = self.p_init if self.p_init is not None else 2 * n * n
        p_max = self.p_max if self.p_max is not None else 5 * n
        # fewer violated cuts than n / 10 escalate the set size
        return p_init, p_max, max(1, n // 10)


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
    exhaustive: bool  # the round's separation is a proof (at t = 2 the greedy one)
    time_build: float  # LP assembly: the new cut rows; in round 1 all of it
    time_solve: float
    time_round: float
    time_separate: float
    time_drop: float  # cut aging, the pool merge and the dual remap


@dataclass
class SolveTrace:
    n: int
    k: int
    rounds: list[RoundRecord] = field(default_factory=list)
    # converged | no_more_cuts | separation_limit | max_rounds | lp_failure
    status: str = "running"
    tight: bool = False
    f_lb: float = -np.inf
    f_ub: float = np.inf
    r_g: float = np.inf
    total_time: float = 0.0
    time_init: float = 0.0
    certified: bool = False  # the pairwise check proved the seed optimal; no LP was solved

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
    w: np.ndarray, eps_act: float, ages: np.ndarray, patience: int
) -> tuple[np.ndarray, np.ndarray]:
    """Age-based removal: a cut leaves the pool once it has been slack at the
    solution of ``patience`` consecutive rounds.  Immediate removal (patience
    one, the textbook rule) can cycle between vertex pools of equal value.

    ``w`` holds the value of every pool row at the solution, Q x, and
    ``ages`` the consecutive slack rounds of every row.  Returns the mask of
    rows kept and the updated ages of the kept rows.
    """
    slack = ~(np.abs(w) <= eps_act)
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

    lloyd_cfg = LloydConfig(seed=cfg.seed)
    incumbent = kmeanspp_lloyd(points, k, lloyd_cfg)
    if k == 2:
        report = proximity_check(d, incumbent[0])
        if report.verdict == "holds_strict":
            # every exact pair slack is positive, so the seed's partition
            # matrix is the unique optimum of the K = 2 relaxation, of value
            # sum_i d_in[i]: each d_in is a mean of at most n - 1 values >= 0
            # and fsum rounds once, which 3 gamma_(n+1) covers
            trace.status = "converged"
            trace.tight = trace.certified = True
            trace.f_lb = math.fsum(report.stats.d_in) * (1.0 - 3.0 * rounding_gamma(n + 1))
            trace.f_ub = incumbent[1]
            trace.r_g = gap(trace.f_ub, trace.f_lb)
            trace.time_init = trace.total_time = time.monotonic() - t_begin
            return incumbent[0], trace, True
    # loaded here, not at the first LP build, so that its import counts in
    # time_init and not in round 1's time_build
    import scipy.sparse  # noqa: F401

    pool = active_cuts(incumbent[0], cap=p_init, seed=cfg.seed)
    trace.time_init = time.monotonic() - t_begin

    f_lb = 0.0  # c >= 0 and x >= 0, so 0 is a valid bound
    r_g = np.inf
    t_max = 2  # separation starts at pair cuts and escalates up to t_limit
    warm = None
    step = primal_weight = None  # PDHG state carried with every warm start
    lp_tol = _LP_TOL_START
    slack_ages = np.zeros(len(pool), dtype=np.int64)  # aligned to the pool rows
    lp = None
    kept_rows = None  # the rows of lp that open the pool, in order
    x_lb = None

    for round_idx in range(1, cfg.max_rounds + 1):
        t0 = time.monotonic()
        lp = build(d, k, pool, base=lp, kept=kept_rows)
        time_build = time.monotonic() - t0
        kept_rows = np.ones(len(pool), dtype=bool)  # unless the round merges new cuts
        lp_tol = float(min(lp_tol, max(_LP_TOL_FLOOR, 0.1 * r_g)))  # r_g = inf keeps it

        t0 = time.monotonic()
        sol = solve(
            lp, tol=lp_tol, time_limit=cfg.lp_time_limit, max_iters=_LP_MAX_ITERS,
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
        candidate = round_lp_solution(x_lb, points, k, lloyd_cfg)
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
            time_build=time_build,
            time_solve=time_solve,
            time_round=time_round,
            time_separate=0.0,
            time_drop=0.0,
        )
        trace.rounds.append(record)

        if r_g <= cfg.eps_opt:
            if lp_tol > _LP_TOL_FLOOR:
                # confirm at full accuracy before reporting tightness
                lp_tol = _LP_TOL_FLOOR
                warm = (sol.x, sol.y, sol.z)
                continue
            trace.status = "converged"
            break

        t0 = time.monotonic()
        report = separate_greedy(x_lb, t_max, cfg.eps_vio)
        while not report.cuts and t_max < t_limit:
            t_max += 1
            report = separate_greedy(x_lb, t_max, cfg.eps_vio)
        record.t_max = t_max  # the |S| the round separated at
        if not report.cuts:
            if lp_tol > _LP_TOL_FLOOR:
                # apparent optimality at loose accuracy: tighten, re-solve the
                # unchanged pool, and stay at full accuracy for the endgame
                record.time_separate = time.monotonic() - t0
                lp_tol = _LP_TOL_FLOOR
                warm = (sol.x, sol.y, sol.z)
                continue
            # at t = 2 both separators form w_i({j}) + gamma[j, k] alike and
            # the greedy keeps each row's largest gamma, so fl(w + gamma),
            # monotone in gamma, makes its empty report the proof already
            if t_max > 2:
                try:
                    report = separate_exhaustive(x_lb, t_max, cfg.eps_vio, cap=p_max)
                except SeparationLimit:
                    # no proof that no violated cut remains: the bounds hold, the gap stays open
                    record.time_separate = time.monotonic() - t0
                    trace.status = "separation_limit"
                    break
            record.exhaustive = True
        record.time_separate = time.monotonic() - t0
        record.violated_found = len(report.cuts)

        if not report.cuts:
            trace.status = "no_more_cuts"
            break

        t0 = time.monotonic()
        # eps_act = 20 lp_tol: 2 at lp_tol = 0.1, the largest |w| of a pair cut on [0, 1]
        kept_rows, kept_ages = _age_cuts(
            lp.q @ sol.x, max(1e-8, 20.0 * lp_tol), slack_ages, _DROP_PATIENCE
        )
        merged, old_rows = pool.merge(kept_rows, report.cuts.take(report.order()), limit=p_max)
        added = len(merged) - kept_ages.size
        slack_ages = np.concatenate([kept_ages, np.zeros(added, dtype=np.int64)])
        # a cut keeps its dual, also one dropped and separated again
        z0 = np.zeros(len(merged))
        z0[old_rows >= 0] = sol.z[old_rows[old_rows >= 0]]
        warm = (sol.x, sol.y, z0)
        record.cuts_removed = len(pool) - kept_ages.size
        record.cuts_added = added
        pool = merged
        record.time_drop = time.monotonic() - t0

        if record.violated_found < escalation:
            t_max = min(t_limit, t_max + 1)
        if bound_stalled or added == 0:
            # working accuracy must outrun the separation noise or the pool
            # just churns; ratchet the tolerance down on stalled progress
            lp_tol = max(_LP_TOL_FLOOR, 0.1 * lp_tol)
    else:
        trace.status = "max_rounds"

    if trace.status in ("converged", "no_more_cuts") and x_lb is not None:
        if is_partition_matrix(x_lb, k, tol=_TIGHT_TOL):
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
