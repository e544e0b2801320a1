"""Command-line surface: solve, generate, certify, recovery-sweep, and
lp-direct subcommands over headerless numeric CSV files.

Every documented flag can also be supplied through an environment variable
``LPKMEANS_<FLAG>`` (dashes as underscores, upper case); explicit flags win.
Sweep trial seeds derive from the master seed through a splitmix64 step,
``mix(master + (index + 1) * 0x9E3779B97F4A7C15)``, so runs are reproducible
yet trials are decorrelated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from lpkmeans.certify import certify, gamma_values, proximity_check
from lpkmeans.core import (
    Partition,
    PointSet,
    is_partition_matrix,
    kmeans_cost,
    same_partition,
    squared_distances,
    unpack_matrix,
)
from lpkmeans.cutplane import SolveConfig, solve_kmeans_lp
from lpkmeans.generators import GenSpec, generate
from lpkmeans.lp_model import all_cuts, build
from lpkmeans.solver import safe_lower_bound, solve

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15


def mix_seed(master: int, index: int) -> int:
    """splitmix64 output for the (index+1)-th state after ``master``."""
    x = (master + (index + 1) * _GAMMA64) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _env(name: str):
    return os.environ.get("LPKMEANS_" + name.upper().replace("-", "_"))


def _env_default(name: str, cast, fallback):
    raw = _env(name)
    if raw is None:
        return fallback
    return cast(raw)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def read_points_csv(path: str, header: bool = False) -> PointSet:
    rows = []
    width = None
    skipped_header = not header
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if not skipped_header:
                skipped_header = True
                continue
            parts = text.split(",")
            try:
                row = [float(v) for v in parts]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: malformed row ({exc})") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} columns, found {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return PointSet(np.array(rows))


def read_labels_csv(path: str) -> np.ndarray:
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                labels.append(int(text))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected an integer label") from None
    if not labels:
        raise ValueError(f"{path}: no labels")
    return np.array(labels, dtype=np.int64)


def _format_float(v: float) -> str:
    return repr(float(v))


def write_points_csv(stream, coords: np.ndarray, comment: str | None = None) -> None:
    if comment is not None:
        stream.write("# " + comment + "\n")
    for row in coords:
        stream.write(",".join(_format_float(v) for v in row) + "\n")


def write_labels_csv(stream, labels: np.ndarray, comment: str | None = None) -> None:
    if comment is not None:
        stream.write("# " + comment + "\n")
    for v in labels:
        stream.write(f"{int(v)}\n")


def _dump_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-opt", type=float, default=_env_default("eps-opt", float, 1e-4))
    p.add_argument("--eps-vio", type=float, default=_env_default("eps-vio", float, 1e-6))
    p.add_argument("--p-init", type=int, default=_env_default("p-init", int, None))
    p.add_argument("--p-max", type=int, default=_env_default("p-max", int, None))
    p.add_argument(
        "--lp-time-limit", type=float, default=_env_default("lp-time-limit", float, None)
    )
    p.add_argument("--t-max", type=int, default=_env_default("t-max", int, None),
                   help="cap on the inequality set size (default: K)")
    p.add_argument("--seed", type=int, default=_env_default("seed", int, 0))
    p.add_argument(
        "--rounding-mode",
        choices=("normalized", "unnormalized"),
        default=_env_default("rounding-mode", str, "normalized"),
    )
    p.add_argument("--max-rounds", type=int, default=_env_default("max-rounds", int, 200))


def cmd_solve(args) -> int:
    points = read_points_csv(args.input, header=args.header)
    if args.k > points.n:
        raise ValueError(f"K={args.k} exceeds the number of points n={points.n}")
    cfg = SolveConfig(
        k=args.k,
        eps_opt=args.eps_opt,
        eps_vio=args.eps_vio,
        p_init=args.p_init,
        p_max=args.p_max,
        lp_time_limit=args.lp_time_limit,
        t_cap=args.t_max,
        seed=args.seed,
        max_rounds=args.max_rounds,
        rounding_mode=args.rounding_mode,
    )
    partition, trace, tight = solve_kmeans_lp(points, cfg)
    doc = {
        "instance": {
            "n": points.n,
            "m": points.m,
            "k": args.k,
            "seed": args.seed,
            "model": "csv",
            "input": args.input,
        },
        "assignments": [int(v) for v in partition.assign],
        "f_ub": trace.f_ub,
        "f_lb": trace.f_lb,
        "r_g": trace.r_g,
        "tight": bool(tight),
        "status": trace.status,
        "rounds": trace.n_rounds,
        "timings": {
            "init": trace.time_init,
            "total": trace.total_time,
            "solve": sum(r.time_solve for r in trace.rounds),
            "round": sum(r.time_round for r in trace.rounds),
            "separate": sum(r.time_separate for r in trace.rounds),
        },
        "config": {
            "eps_opt": cfg.eps_opt,
            "eps_vio": cfg.eps_vio,
            "p_init": cfg.p_init,
            "p_max": cfg.p_max,
            "lp_time_limit": cfg.lp_time_limit,
            "t_cap": cfg.t_cap,
            "seed": cfg.seed,
            "max_rounds": cfg.max_rounds,
            "rounding_mode": cfg.rounding_mode,
        },
    }
    _dump_json(doc, args.out)
    return 0 if trace.r_g <= cfg.eps_opt else 2


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _genspec_from_args(args) -> GenSpec:
    model = args.model.replace("-", "_")
    return GenSpec(
        model=model,
        n=args.n,
        m=args.m,
        delta=args.delta,
        r1=args.r1,
        radius=args.radius,
        n_prime=args.n_prime,
        seed=args.seed,
    )


def cmd_generate(args) -> int:
    spec = _genspec_from_args(args)
    points, planted = generate(spec)
    comment = json.dumps(
        {
            "model": spec.model,
            "n": points.n,
            "m": spec.m,
            "delta": spec.delta,
            "r1": spec.r1,
            "radius": spec.radius,
            "n_prime": spec.n_prime,
            "seed": spec.seed,
        },
        sort_keys=True,
    )
    if args.out is None:
        write_points_csv(sys.stdout, points.coords, comment)
        if args.labels_out:
            with open(args.labels_out, "w") as fh:
                write_labels_csv(fh, planted.assign, comment)
        return 0
    with open(args.out, "w") as fh:
        write_points_csv(fh, points.coords, comment)
    labels_path = args.labels_out
    if labels_path is None:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        labels_path = stem + ".labels.csv"
    with open(labels_path, "w") as fh:
        write_labels_csv(fh, planted.assign, comment)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    points = read_points_csv(args.input, header=args.header)
    labels = read_labels_csv(args.labels)
    if labels.size != points.n:
        raise ValueError(f"{labels.size} labels for {points.n} points")
    uniq = np.unique(labels)
    if uniq.size != 2:
        raise ValueError(f"certification needs exactly 2 clusters, found {uniq.size}")
    relabeled = np.searchsorted(uniq, labels)
    p = Partition(2, relabeled)
    d = squared_distances(points)

    prox = proximity_check(d, p)
    print(f"proximity: {prox.verdict}")
    print(f"  min slack (smaller cluster pairs): {prox.margin_small:.6g}")
    print(f"  min slack (larger cluster pairs):  {prox.margin_large:.6g}")

    state = certify(gamma_values(d, p), p)
    if state.success:
        print(f"certificate: success ({len(state.lam)} repair multipliers)")
    else:
        print(
            f"certificate: failure at pair {state.failed_pair}, residual deficit {state.deficit:.6g}"
        )

    if args.cross_check:
        if points.n > 80:
            raise ValueError("--cross-check is limited to n <= 80")
        lp = build(d, 2, all_cuts(points.n, 2))
        sol = solve(lp, tol=1e-8)
        x = unpack_matrix(sol.x, points.n)
        cost = kmeans_cost(points, p)
        print(f"cross-check: lp optimum {sol.objective:.12g} vs partition cost {cost:.12g}")
        print(f"  lp solution is a partition matrix: {is_partition_matrix(x, 2, 1e-5)}")

    return 0 if state.success else 2


# ---------------------------------------------------------------------------
# recovery-sweep
# ---------------------------------------------------------------------------


def _sweep_trial(task: tuple) -> tuple[bool, bool, int]:
    mode, model, n, m, r1, delta, seed = task
    spec = GenSpec(model=model, n=n, m=m, delta=delta, r1=r1, seed=seed)
    points, planted = generate(spec)
    if mode == "lp":
        cfg = SolveConfig(k=2, seed=seed)
        partition, trace, tight = solve_kmeans_lp(points, cfg)
        recovered = bool(tight and same_partition(partition.assign, planted.assign))
        return recovered, bool(tight), trace.n_rounds
    d = squared_distances(points)
    if mode == "certify":
        state = certify(gamma_values(d, planted), planted)
        return bool(state.success), bool(state.success), 0
    prox = proximity_check(d, planted)
    ok = prox.verdict != "fails"
    return ok, ok, 0


def cmd_recovery_sweep(args) -> int:
    deltas = np.arange(args.delta_min, args.delta_max + 0.5 * args.delta_step, args.delta_step)
    if deltas.size == 0:
        raise ValueError("empty delta grid")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")

    tasks = []
    for di, delta in enumerate(deltas):
        for t in range(args.trials):
            seed = mix_seed(args.seed, di * args.trials + t)
            tasks.append((args.mode, args.model, args.n, args.m, args.r1, float(delta), seed))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_trial, tasks))
    else:
        results = [_sweep_trial(t) for t in tasks]

    lines = ["# delta,recovery_rate,tight_rate,mean_rounds"]
    for di, delta in enumerate(deltas):
        chunk = results[di * args.trials : (di + 1) * args.trials]
        rate = sum(1 for r in chunk if r[0]) / args.trials
        tight_rate = sum(1 for r in chunk if r[1]) / args.trials
        mean_rounds = sum(r[2] for r in chunk) / args.trials
        lines.append(f"{float(delta)!r},{rate!r},{tight_rate!r},{mean_rounds!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# lp-direct
# ---------------------------------------------------------------------------


def cmd_lp_direct(args) -> int:
    points = read_points_csv(args.input, header=args.header)
    n = points.n
    if args.k > n:
        raise ValueError(f"K={args.k} exceeds n={n}")
    t = args.t if args.t is not None else min(2, args.k)
    t = min(t, args.k)
    rows = sum(n * math.comb(n - 1, size) for size in range(2, t + 1))
    if n > 300 or rows > 2_000_000:
        raise ValueError(f"direct build infeasible: n={n}, t={t} gives {rows} inequality rows")
    d = squared_distances(points)
    lp = build(d, args.k, all_cuts(n, t))
    sol = solve(lp, tol=args.tol, max_iters=args.max_iters)
    x = unpack_matrix(sol.x, n)
    doc = {
        "n": n,
        "k": args.k,
        "t": t,
        "rows": int(lp.a_eq.shape[0] + lp.q.shape[0]),
        "objective": sol.objective,
        "safe_lower_bound": safe_lower_bound(lp, sol),
        "status": sol.status,
        "iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "gap": sol.gap,
        "tight": bool(is_partition_matrix(x, args.k, 1e-5)),
    }
    _dump_json(doc, args.out)
    return 0 if sol.status == "optimal_to_tol" else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpkmeans",
        description="Certified K-means clustering through an LP relaxation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="cluster a CSV of points to certified optimality")
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true", help="skip one header line")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=_env_default("out", str, None))
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="write a synthetic instance as CSV")
    p.add_argument("--model", required=True,
                   choices=("ssm", "sbm", "five-point", "five-ball"))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=0.0)
    p.add_argument("--n-prime", type=int, default=1)
    p.add_argument("--seed", type=int, default=_env_default("seed", int, 0))
    p.add_argument("--out", default=None)
    p.add_argument("--labels-out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("certify", help="check two-cluster optimality certificates")
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--labels", required=True)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("recovery-sweep", help="empirical recovery rates over a delta grid")
    p.add_argument("--delta-min", type=float, required=True)
    p.add_argument("--delta-max", type=float, required=True)
    p.add_argument("--delta-step", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--mode", choices=("lp", "certify", "proximity"), default="lp")
    p.add_argument("--model", choices=("ssm", "sbm"), default="ssm")
    p.add_argument("--seed", type=int, default=_env_default("seed", int, 0))
    p.add_argument("--jobs", type=int, default=_env_default("jobs", int, 1))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recovery_sweep)

    p = sub.add_parser("lp-direct", help="build the full relaxation and solve once")
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=400_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lp_direct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
