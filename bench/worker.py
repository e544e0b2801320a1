"""The measuring process of one benchmark run.

``run.py`` starts it with BLAS and OpenMP pinned to one thread and reads
the one JSON document it prints.  Modes:

  --setup    time the import of lpkmeans plus generating the instances
  --record   print the fingerprints of the unmoved instances
  (default)  warm up, then run the workload for --seconds, untraced
             (--trace 0) or alternating untraced and traced passes (--trace 1)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from compare import check

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Run:
    """Runs instances, checks each result against the reference, and keeps
    the first fingerprint of every instance."""

    def __init__(self, corpus, reference):
        self.corpus = corpus
        self.reference = reference
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.fingerprints: dict[str, dict] = {}

    def once(self, case, inputs) -> float:
        self.attempted += 1
        t0 = perf_counter()
        try:
            output = self.corpus.run(case, inputs)
        except Exception:
            elapsed = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.fail([f"{case.name}: raised"])
            return elapsed
        elapsed = perf_counter() - t0
        fp = self.corpus.fingerprint(case, output)
        problems = [f"{case.name}: {p}" for p in check(fp, self.reference.get(case.name))]
        first = self.fingerprints.setdefault(case.name, fp)
        if fp != first:
            problems.append(f"{case.name}: result differs from the first run in this process")
        self.fail(problems)
        return elapsed

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(run: Run, instances, seconds: float) -> dict:
    """Cycle through the instances until the next one would end past
    ``seconds``; at least one full pass.  One pass's wall time is the sum of
    the per-instance medians."""
    samples = {case.name: [] for case, _ in instances}
    start = perf_counter()
    i = 0
    while True:
        case, inputs = instances[i % len(instances)]
        samples[case.name].append(run.once(case, inputs))
        i += 1
        nxt = instances[i % len(instances)][0].name
        if i >= len(instances) and perf_counter() - start + statistics.median(samples[nxt]) > seconds:
            break
    full = min(len(v) for v in samples.values())
    return {
        "pass_s": sum(statistics.median(v) for v in samples.values()),
        "samples": samples,
        "passes": [sum(v[k] for v in samples.values()) for k in range(full)],
    }


def measure_traced(run: Run, corpus, tracer, instances, seconds: float) -> dict:
    """Alternate untraced and traced passes (at least one of each); report
    the layers of the traced pass with the median wall time."""
    untraced_run = Run(corpus, run.reference)
    walls = {False: [], True: []}
    layer_passes = []
    wrapped_all = []
    start = perf_counter()
    while True:
        walls[False].append(sum(untraced_run.once(case, inputs) for case, inputs in instances))
        tr = tracer.Tracer()
        with tracer.traced(tr) as wrapped:
            wall = sum(run.once(case, inputs) for case, inputs in instances)
        wrapped_all.extend(wrapped)
        layer_passes.append((wall, tr))
        walls[True].append(wall)
        next_pair = statistics.median(walls[False]) + statistics.median(walls[True])
        if perf_counter() - start + next_pair > seconds:
            break

    # the traced run must reproduce the untraced results exactly
    for name, fp in run.fingerprints.items():
        if untraced_run.fingerprints.get(name) != fp:
            run.fail([f"{name}: traced result differs from untraced"])
    run.attempted += untraced_run.attempted
    run.failed += untraced_run.failed
    run.problems.extend(untraced_run.problems)

    layer_passes.sort(key=lambda wt: wt[0])
    wall, tr = layer_passes[(len(layer_passes) - 1) // 2]
    metrics = tracer.layer_metrics(tr)
    metrics["trace.pass_s"] = wall
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.accounted_share"] = sum(rec[2] for rec in tr.spans.values()) / wall
    return {
        "metrics": metrics,
        "spans": tr.spans,
        "untraced_passes": walls[False],
        "traced_passes": walls[True],
        "wrapped": len({(module.__name__, attr) for module, attr, _ in wrapped_all}),
        "spans_listed": len(tracer.SPANS),
        "restored": tracer.restored(wrapped_all),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import corpus

    cases = corpus.cases(args.workload, args.tiny)
    if args.setup:
        [corpus.make_inputs(case, args.seed) for case in cases]
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return
    if args.record:
        out = {case.name: corpus.fingerprint(case, corpus.run(case, corpus.make_inputs(case, None)))
               for case in cases}
        print(json.dumps(out))
        return

    import tracer

    reference = corpus.load_reference()
    warm = corpus.WARMUP[cases[0].kind]
    corpus.run(warm, corpus.make_inputs(warm, args.seed))

    run = Run(corpus, reference)
    if args.trace:
        gen = tracer.Tracer()
        with tracer.traced(gen, [s for s in tracer.SPANS if s[2] == "generators.generate"]):
            instances = [(case, corpus.make_inputs(case, args.seed)) for case in cases]
        result = measure_traced(run, corpus, tracer, corpus.run_order(instances, args.seed),
                                args.seconds)
        result["metrics"]["generators.generate_s"] = gen.seconds("generators.generate")
    else:
        instances = [(case, corpus.make_inputs(case, args.seed)) for case in cases]
        result = measure(run, corpus.run_order(instances, args.seed), args.seconds)
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        fingerprints=run.fingerprints,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
