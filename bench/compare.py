"""Comparing results: a fingerprint against its reference, and the runs of
two commits metric by metric.

Verdicts follow the choosing-metrics rules: a metric is *improved* when the
change wins at least nine tenths of the seed-paired runs and the medians
differ by more than the parent's own spread (the distance between its
quartiles); a bounded metric is *worse* when its median is worse than the
parent's by more than the bound, and *unresolved* when the parent's spread
is wider than the bound, unless every run of the change reads better than
every run of the parent.  A per-layer metric has no bound and is *worse* by
the mirror of the improved rule.  Anything else is *unchanged*.  With fewer
than ten seed-paired runs a metric is *unresolved* unless every run reads
the same.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

F_UB_RTOL = 1e-9
MIN_PAIRS = 10
_LP_EXACT = ("status", "tight", "assignment")
_CERTIFY_EXACT = ("verdict", "success", "failed_pair")


def check(fp: dict, ref: dict | None) -> list[str]:
    """Every way a fingerprint departs from its reference.

    LP results: status, tight flag and assignment hash equal, f_ub within a
    relative 1e-9, f_lb <= f_ub, and r_g <= eps_opt exactly when the
    reference is tight.  Certify results: verdict, success and failed pair
    equal."""
    if ref is None:
        return ["no reference fingerprint"]
    if "f_ub" not in ref:
        return [f"{k} {fp.get(k)!r} != reference {ref[k]!r}"
                for k in _CERTIFY_EXACT if fp.get(k) != ref[k]]
    problems = [f"{k} {fp[k]!r} != reference {ref[k]!r}" for k in _LP_EXACT if fp[k] != ref[k]]
    if not abs(fp["f_ub"] - ref["f_ub"]) <= F_UB_RTOL * abs(ref["f_ub"]):
        problems.append(f"f_ub {fp['f_ub']!r} != reference {ref['f_ub']!r}")
    if not fp["f_lb"] <= fp["f_ub"]:
        problems.append(f"f_lb {fp['f_lb']!r} > f_ub {fp['f_ub']!r}")
    if fp["gap_closed"] != ref["tight"]:
        problems.append(f"r_g <= eps_opt is {fp['gap_closed']}, reference tight is {ref['tight']}")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def upper_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None for fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10  # nearest rank: ten samples lie above it
    return 100.0 * rank / n, sorted(values)[rank - 1]


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> str:
    """``parent`` and ``change`` map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(parent.values()), list(change.values())
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    spread = q3 - q1
    seeds = parent.keys() & change.keys()
    wins = sum(sign * (parent[s] - change[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    gain = sign * (med_a - med_b)
    if a == b and len(set(a)) == 1:
        return "unchanged"
    if len(seeds) < MIN_PAIRS:
        return "unresolved"
    if wins >= 0.9 * len(seeds) and gain > spread:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(seeds) and -gain > spread:
            return "worse"
        return "unchanged"
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if spread > bound * abs(med_a) and not all_better:
        return "unresolved"
    if -gain > bound * abs(med_a):
        return "worse"
    return "unchanged"


def _load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.rglob("*.json")):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no result files in {directory}")
    return records


def compare(dir_parent: Path, dir_change: Path, spec: dict) -> int:
    """Print the comparison table; 1 if a fingerprint changed or a
    workload's fail rate rose, else 0."""
    recs = {"parent": _load(dir_parent), "change": _load(dir_change)}
    envs = {side: {json.dumps(r["env"], sort_keys=True) for r in rs} for side, rs in recs.items()}
    if envs["parent"] != envs["change"] or len(envs["parent"]) > 1:
        print("WARNING: results come from different environments:")
        for side, es in envs.items():
            for e in sorted(es):
                print(f"  {side}: {e}")
    for side, rs in recs.items():
        commits = sorted({str(r.get("commit") or r.get("source_digest")) for r in rs})
        print(f"{side}: {dir_parent if side == 'parent' else dir_change} "
              f"({len(rs)} runs; commit {', '.join(commits)})")

    status = 0
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = sorted({r["workload"] for rs in recs.values() for r in rs})
    print(f"{'workload':<12} {'metric':<28} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'runs':>5}  verdict")
    for wl in workloads:
        by_side = {side: [r for r in rs if r["workload"] == wl] for side, rs in recs.items()}
        rates = {}
        for side, rs in by_side.items():
            attempted = sum(r["attempted"] for r in rs)
            rates[side] = sum(r["failed"] for r in rs) / attempted if attempted else 0.0
        if rates["change"] > rates["parent"]:
            print(f"{wl}: fail_rate rose from {rates['parent']:.4g} to {rates['change']:.4g}")
            status = 1
        parent_fps = {}
        for r in by_side["parent"]:
            for name, fp in r["fingerprints"].items():
                parent_fps.setdefault(name, fp)
        for r in by_side["change"]:
            for name, fp in sorted(r["fingerprints"].items()):
                problems = check(fp, parent_fps[name]) if name in parent_fps else []
                if problems:
                    print(f"{wl} seed {r['seed']}: fingerprint of {name} changed: "
                          f"{'; '.join(problems)}")
                    status = 1
        for name, m in defs.items():
            values = {side: {r["seed"]: r["metrics"][name] for r in rs if name in r["metrics"]}
                      for side, rs in by_side.items()}
            if not values["parent"] or not values["change"]:
                continue
            cells = []
            for side in ("parent", "change"):
                q1, med, q3 = quartiles(list(values[side].values()))
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            runs = len(values["parent"].keys() & values["change"].keys())
            v = verdict(values["parent"], values["change"], m["better"], m.get("bound"))
            print(f"{wl:<12} {name:<28} {cells[0]:>34} {cells[1]:>34} {runs:>5}  {v}")
    return status
