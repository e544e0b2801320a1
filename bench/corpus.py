"""The benchmark corpus: the instances of each workload, the seed-derived
rigid motion applied to their points, the pipelines that run them, and the
fingerprints their results are checked against.

Every instance is a fixed generator spec.  The run seed moves the points by
a random rotation and translation and shuffles the order the instances run
in.  A rigid motion leaves the clustering problem unchanged, so the seed
varies the inputs the package sees but not the work, and every seed is
checked against the same committed fingerprints.

The pipelines look every package function up as a module attribute at call
time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lpkmeans.certify
import lpkmeans.core
import lpkmeans.cutplane
import lpkmeans.generators

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Case:
    name: str
    kind: str  # "lp": solve_kmeans_lp with K = 2; "certify": the certify pipeline
    spec: dict  # keyword arguments of lpkmeans.generators.GenSpec


def _ssm(n, delta, seed):
    return Case(f"ssm-n{n}-d{delta}-g{seed}", "lp",
                dict(model="ssm", n=n, m=2, delta=delta, seed=seed))


def _five_ball(n_prime, seed):
    return Case(f"five_ball-np{n_prime}-g{seed}", "lp",
                dict(model="five_ball", m=3, radius=0.1, n_prime=n_prime, seed=seed))


def _sbm(n, delta, seed):
    return Case(f"sbm-n{n}-d{delta}-g{seed}", "certify",
                dict(model="sbm", n=n, m=2, delta=delta, seed=seed))


# "lp" holds both kinds of cutting-plane solve: ssm instances tight within a
# few rounds from a cold pool (LP assembly and per-cut pool work dominate)
# and five_ball instances that are never tight (warm-started PDHG re-solves,
# pool churn, an exhaustive separation proof).  They share one workload so
# that each run is long enough to average out the machine's speed swings.
WORKLOADS = {
    "lp": [_ssm(100, 2.2, 1), _ssm(100, 3.0, 1), _five_ball(12, 1), _five_ball(12, 2)],
    "certify": [_sbm(2000, 1.9, 1), _sbm(2000, 2.3, 1)],
}

# Small instances of the same shape, for the self-check.
TINY_WORKLOADS = {
    "lp": [_ssm(20, 3.0, 1), _five_ball(3, 1)],
    "certify": [_sbm(100, 2.3, 1)],
}

# Untimed warm-up before measuring: one small instance of the same kind.
WARMUP = {"lp": _ssm(30, 3.0, 1), "certify": _sbm(200, 2.3, 1)}


def cases(workload: str, tiny: bool = False) -> list[Case]:
    return (TINY_WORKLOADS if tiny else WORKLOADS)[workload]


def motion(seed: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed-derived rotation (Haar-distributed orthogonal matrix) and shift."""
    rng = np.random.Generator(np.random.Philox(seed))
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q *= np.sign(np.diag(r))
    return q, rng.uniform(-1.0, 1.0, m)


def make_inputs(case: Case, seed: int | None):
    """The points (moved by the seed's rigid motion; unmoved for None) and
    the planted partition."""
    spec = lpkmeans.generators.GenSpec(**case.spec)
    points, planted = lpkmeans.generators.generate(spec)
    if seed is not None:
        q, shift = motion(seed, points.m)
        points = lpkmeans.core.PointSet(points.coords @ q + shift)
    return points, planted


def run_order(items: list, seed: int) -> list:
    """The seed's order of the workload's instances."""
    rng = np.random.Generator(np.random.Philox(seed + 1))
    return [items[i] for i in rng.permutation(len(items))]


def run(case: Case, inputs):
    """One call of the user-facing pipeline; returns what it produced."""
    points, planted = inputs
    if case.kind == "lp":
        cfg = lpkmeans.cutplane.SolveConfig(k=2)
        return cfg, lpkmeans.cutplane.solve_kmeans_lp(points, cfg)
    # as `lpkmeans certify` runs it, file I/O aside
    d = lpkmeans.core.squared_distances(points)
    prox = lpkmeans.certify.proximity_check(d, planted)
    state = lpkmeans.certify.certify(lpkmeans.certify.gamma_values(d, planted), planted)
    return prox, state


def _assignment_hash(assign) -> str:
    """Hash of the assignment with clusters renumbered by first occurrence."""
    labels: dict[int, int] = {}
    canonical = [labels.setdefault(int(a), len(labels)) for a in assign]
    return hashlib.sha256(np.asarray(canonical, dtype="<i8").tobytes()).hexdigest()[:16]


def fingerprint(case: Case, output) -> dict:
    if case.kind == "lp":
        cfg, (partition, trace, tight) = output
        return {
            "status": trace.status,
            "tight": bool(tight),
            "assignment": _assignment_hash(partition.assign),
            "f_ub": float(trace.f_ub),
            "f_lb": float(trace.f_lb),
            "gap_closed": bool(trace.r_g <= cfg.eps_opt),
        }
    prox, state = output
    return {
        "verdict": prox.verdict,
        "success": bool(state.success),
        "failed_pair": list(state.failed_pair) if state.failed_pair is not None else None,
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
