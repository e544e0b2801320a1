"""Per-layer tracing from outside the package.

Each public function is wrapped where its caller looks it up: the cutting
plane loop's imports as attributes of ``lpkmeans.cutplane``, the certifier's
as attributes of ``lpkmeans.certify``, the certify pipeline's distances on
``lpkmeans.core``.  A wrapper records calls, inclusive seconds and self
seconds (inclusive minus wrapped callees) under its span name, and may add
counts read from the result.  Every wrapped attribute is restored on exit.
An attribute the package no longer has is skipped and its span reads zero.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # span -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self.seed_cost = float("inf")  # incumbent cost after seeding, for ub_improved
        self._open = [0.0]  # time spent in wrapped callees, per open span

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, func, span: str, count=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                inner = self._open.pop()
                self._open[-1] += elapsed
                rec = self.spans.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
            if count is not None:
                count(self, result)
            return result

        return wrapper

    def calls(self, span: str) -> int:
        return self.spans.get(span, [0, 0.0, 0.0])[0]

    def seconds(self, span: str) -> float:
        return self.spans.get(span, [0, 0.0, 0.0])[1]

    def self_seconds(self, span: str) -> float:
        return self.spans.get(span, [0, 0.0, 0.0])[2]


def _count_solve_kmeans_lp(tr: Tracer, result) -> None:
    _, trace, _ = result
    best = tr.seed_cost
    for rec in trace.rounds:
        tr.add("cutplane.rounds", 1)
        tr.add("cutplane.pool_rows", getattr(rec, "pool_size", 0))
        tr.add("cutplane.cuts_removed", getattr(rec, "cuts_removed", 0))
        tr.add("cutplane.cuts_added", getattr(rec, "cuts_added", 0))
        if rec.f_ub < best:
            tr.add("heuristics.ub_improved", 1)
            best = rec.f_ub


def _count_seed(tr: Tracer, result) -> None:
    tr.seed_cost = result[1]


def _count_build(tr: Tracer, lp) -> None:
    tr.add("lp_model.q_nnz", lp.q.nnz)


def _count_solve(tr: Tracer, sol) -> None:
    tr.add("solver.iterations", sol.iterations)
    tr.add("solver.not_optimal", sol.status != "optimal_to_tol")


def _count_separation(tr: Tracer, report) -> None:
    tr.add("separation.violated_found", len(report.cuts))


def _count_gamma(tr: Tracer, gamma) -> None:
    for values in gamma.values:
        tr.add("certify.pairs", values.size)
        tr.add("certify.negative_pairs", int((values < 0.0).sum()))


def _count_certify(tr: Tracer, state) -> None:
    tr.add("certify.multipliers", len(state.lam))


# (module, attribute, span, count hook)
SPANS = [
    ("lpkmeans.cutplane", "solve_kmeans_lp", "cutplane", _count_solve_kmeans_lp),
    ("lpkmeans.cutplane", "squared_distances", "core.distances", None),
    ("lpkmeans.cutplane", "kmeanspp_lloyd", "heuristics.seed", _count_seed),
    ("lpkmeans.cutplane", "active_cuts", "lp_model.active_cuts", None),
    ("lpkmeans.cutplane", "build", "lp_model.build", _count_build),
    ("lpkmeans.cutplane", "solve", "solver.solve", _count_solve),
    ("lpkmeans.cutplane", "safe_lower_bound", "solver.safe_bound", None),
    ("lpkmeans.cutplane", "round_lp_solution", "heuristics.round", None),
    ("lpkmeans.cutplane", "violation", "lp_model.violation", None),
    ("lpkmeans.cutplane", "separate_greedy", "separation.greedy", _count_separation),
    ("lpkmeans.cutplane", "separate_exhaustive", "separation.exhaustive", _count_separation),
    ("lpkmeans.cutplane", "is_partition_matrix", "core.tight_check", None),
    ("lpkmeans.cutplane", "lp_objective", "core.tight_check", None),
    ("lpkmeans.cutplane", "kmeans_cost", "core.tight_check", None),
    ("lpkmeans.core", "squared_distances", "core.distances", None),
    ("lpkmeans.certify", "two_cluster_stats", "certify.stats", None),
    ("lpkmeans.certify", "proximity_check", "certify.proximity", None),
    ("lpkmeans.certify", "gamma_values", "certify.gamma", _count_gamma),
    ("lpkmeans.certify", "certify", "certify.repair", _count_certify),
    ("lpkmeans.generators", "generate", "generators.generate", None),
]


@contextmanager
def traced(tracer: Tracer, spans=SPANS):
    """Wrap every listed attribute for the duration of the block.  Yields the
    list of (module, attribute, original) that were wrapped."""
    wrapped = []
    try:
        for module_name, attr, span, count in spans:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span, count))
        yield wrapped
    finally:
        for module, attr, original in reversed(wrapped):
            setattr(module, attr, original)


def restored(wrapped) -> bool:
    """Whether every attribute wrapped by ``traced`` is its original again."""
    return all(getattr(module, attr) is original for module, attr, original in wrapped)


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by their BENCHMARK.json names."""
    s, calls, count = tr.seconds, tr.calls, tr.counts.get
    solve_s = s("solver.solve")
    found = count("separation.violated_found", 0)
    return {
        "lp_model.build_s": s("lp_model.build"),
        "lp_model.build_calls": calls("lp_model.build"),
        "lp_model.q_nnz": count("lp_model.q_nnz", 0),
        "lp_model.active_cuts_s": s("lp_model.active_cuts"),
        "lp_model.violation_s": s("lp_model.violation"),
        "lp_model.violation_calls": calls("lp_model.violation"),
        "cutplane.self_s": tr.self_seconds("cutplane"),
        "cutplane.rounds": count("cutplane.rounds", 0),
        "cutplane.pool_rows": count("cutplane.pool_rows", 0),
        "cutplane.cuts_removed": count("cutplane.cuts_removed", 0),
        "cutplane.cuts_added": count("cutplane.cuts_added", 0),
        "solver.solve_s": solve_s,
        "solver.solve_calls": calls("solver.solve"),
        "solver.iterations": count("solver.iterations", 0),
        "solver.iterations_per_s": count("solver.iterations", 0) / solve_s if solve_s else 0.0,
        "solver.not_optimal": count("solver.not_optimal", 0),
        "solver.safe_bound_s": s("solver.safe_bound"),
        "separation.greedy_s": s("separation.greedy"),
        "separation.greedy_calls": calls("separation.greedy"),
        "separation.exhaustive_s": s("separation.exhaustive"),
        "separation.exhaustive_calls": calls("separation.exhaustive"),
        "separation.violated_found": found,
        "separation.added_per_found": count("cutplane.cuts_added", 0) / found if found else 0.0,
        "heuristics.seed_s": s("heuristics.seed"),
        "heuristics.round_s": s("heuristics.round"),
        "heuristics.round_calls": calls("heuristics.round"),
        "heuristics.ub_improved": count("heuristics.ub_improved", 0),
        "core.distances_s": s("core.distances"),
        "core.tight_check_s": s("core.tight_check"),
        "certify.stats_s": s("certify.stats"),
        "certify.stats_calls": calls("certify.stats"),
        "certify.proximity_s": s("certify.proximity"),
        "certify.gamma_s": s("certify.gamma"),
        "certify.repair_s": s("certify.repair"),
        "certify.pairs": count("certify.pairs", 0),
        "certify.negative_pairs": count("certify.negative_pairs", 0),
        "certify.multipliers": count("certify.multipliers", 0),
    }
