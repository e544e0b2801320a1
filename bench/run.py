"""The lpkmeans benchmark.

    python3 bench/run.py --workload lp --seed 1 --seconds 60 --trace 0 [--out DIR]
    python3 bench/run.py --compare bench/results/parent bench/results/change
    python3 bench/run.py --self-check
    python3 bench/run.py --record-reference

Run from the root of a checkout.  The workloads, their metrics and the
bounds are in BENCHMARK.json.  Each run is a closed loop: one client, one
process, one instance at a time, with BLAS and OpenMP pinned to one thread.
Every result is checked against the fingerprints in bench/reference.json.

--trace 0 reports the end-to-end metrics: ``pass_s``, one pass over the
workload's instances, ``setup_s``, the median over fresh processes of
importing lpkmeans and generating the instances, and ``peak_rss_mb``.
--trace 1 alternates untraced passes with passes in which the package's
functions are wrapped (bench/tracer.py) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run for a reader.  ``--out DIR`` also writes the full record,
environment and fingerprints included, to DIR for ``--compare``, which
pairs the records of two directories by workload and seed (bench/results/
is ignored by git).

--record-reference rewrites bench/reference.json from the current code.  Do
that only for a change that is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import compare, upper_percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_RUNS = 6
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Hash of the package sources, which identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lpkmeans").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def bench_run(workload: str, seed: int, seconds: float, trace: int, spec: dict,
              tiny: bool = False) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []

    def setup_runs(count: int) -> None:
        setups.extend(worker(base + ["--setup"], deadline)["setup_s"] for _ in range(count))

    if not trace:
        # untimed first: the first import in a fresh checkout compiles bytecode
        worker(base + ["--setup"], deadline)
        setup_runs(1 if tiny else SETUP_RUNS // 2)
    out = worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        # half the set-ups after the measured run, so they sample the same span of time
        setup_runs(1 if tiny else SETUP_RUNS - SETUP_RUNS // 2)

    if trace:
        metrics = out.pop("metrics")
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = {"pass_s": out["pass_s"], "setup_s": statistics.median(setups),
                   "peak_rss_mb": out["peak_rss_mb"]}
        names = [m["name"] for m in spec["end_to_end"]]
    problems = list(out["problems"])
    if sorted(metrics) != sorted(names):
        problems.append(f"emitted metrics {sorted(metrics)} != BENCHMARK.json {sorted(names)}")
    if trace and not out["restored"]:
        problems.append("a wrapped attribute was not restored after the traced run")
    out.update(
        workload=workload, seed=seed, trace=trace, seconds=seconds, tiny=tiny,
        commit=git_commit(), source_digest=source_digest(), setup_samples=setups,
        metrics=metrics, problems=problems,
    )
    return out


def describe(rec: dict, spec: dict) -> None:
    env = rec["env"]
    print(f"lpkmeans benchmark: workload {rec['workload']}, seed {rec['seed']}, "
          f"trace {rec['trace']}, {rec['seconds']} s")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas']}, nproc {env['nproc']} (affinity {env['affinity']}), "
          f"commit {rec['commit'] or 'unknown'}, sources {rec['source_digest']}")
    for name, fp in sorted(rec["fingerprints"].items()):
        print(f"  {name}: {json.dumps(fp, sort_keys=True)}")
    print(f"attempted {rec['attempted']}, failed {rec['failed']}, "
          f"fail_rate {rec['failed'] / max(rec['attempted'], 1):.4g}")
    for p in rec["problems"]:
        print(f"  PROBLEM: {p}")
    units = units_of(spec)
    if not rec["trace"]:
        for name, times in rec["samples"].items():
            print(f"  {name}: {len(times)} runs, median {statistics.median(times):.4f} s, "
                  f"max {max(times):.4f} s")
        passes = rec["passes"]
        upper = upper_percentile(passes)
        print(f"pass_s {rec['metrics']['pass_s']:.4f} s (sum of the per-instance medians); "
              f"{len(passes)} full passes, median {statistics.median(passes):.4f} s, "
              + (f"p{upper[0]:.0f} {upper[1]:.4f} s" if upper else
                 f"max {max(passes):.4f} s (a tail percentile needs 11 or more passes)"))
        print(f"setup_s {rec['metrics']['setup_s']:.4f} s, median of "
              f"{[round(s, 4) for s in rec['setup_samples']]}")
        print(f"peak_rss_mb {rec['metrics']['peak_rss_mb']:.1f} MB")
        return
    m = rec["metrics"]
    wall = m["trace.pass_s"]
    print(f"traced passes {[round(w, 3) for w in rec['traced_passes']]} s, untraced "
          f"{[round(w, 3) for w in rec['untraced_passes']]} s; tracing overhead "
          f"{m['trace.overhead_s']:.4f} s per pass")
    print(f"layers of the median traced pass ({wall:.4f} s), by self time:")
    spans = sorted(rec["spans"].items(), key=lambda kv: -kv[1][2])
    for span, (calls, seconds, self_s) in spans:
        print(f"  {span:<24} {calls:>7} calls {seconds:>10.4f} s  self {self_s:>10.4f} s "
              f"({100 * self_s / wall:5.1f}%)")
    if spans:
        layers: dict[str, float] = {}
        for span, (_, _, self_s) in spans:
            layers[span.split(".")[0]] = layers.get(span.split(".")[0], 0.0) + self_s
        top = max(layers, key=layers.get)
        print(f"largest layer: {top} ({100 * layers[top] / wall:.1f}% of the pass); largest span: "
              f"{spans[0][0]} ({100 * spans[0][1][2] / wall:.1f}%)")
    print(f"layer self times account for {100 * m['trace.accounted_share']:.2f}% of the pass")
    for name in sorted(m):
        print(f"  {name} = {m[name]:.6g} {units.get(name, '')}")


def self_check(spec: dict) -> int:
    """Tiny instances of every workload, untraced and traced: every metric
    name is emitted, every result matches its reference and every wrapped
    attribute is restored."""
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rec = bench_run(workload, 1, 1.0, trace, spec, tiny=True)
            ok = rec["failed"] == 0 and not rec["problems"]
            extra = f", wrapped {rec['wrapped']} of {rec['spans_listed']} attributes" if trace else ""
            print(f"{workload} trace {trace}: {'ok' if ok else 'FAILED'} "
                  f"({rec['attempted']} runs, {len(rec['metrics'])} metrics{extra})")
            for p in rec["problems"]:
                print(f"  PROBLEM: {p}")
            if trace and rec["wrapped"] < rec["spans_listed"]:
                print("  note: some listed attributes are missing from the package; "
                      "their spans read zero")
            status |= not ok
    return status


def record_reference(spec: dict) -> None:
    deadline = time.monotonic() + 3600.0
    reference = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for tiny in ([], ["--tiny"]):
            reference.update(worker(["--workload", workload, "--record", *tiny], deadline))
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} fingerprints to {path}")


def main() -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full record into this directory")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_PARENT", "DIR_CHANGE"))
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "lpkmeans" / "__init__.py").is_file():
        print(f"error: no lpkmeans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(spec)
    if args.record_reference:
        record_reference(spec)
        return 0
    if args.workload not in {w["name"] for w in spec["workloads"]} or args.seed < 0:
        ap.error("need --workload (one named in BENCHMARK.json) and a --seed >= 0")

    rec = bench_run(args.workload, args.seed, args.seconds, args.trace, spec)
    describe(rec, spec)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    correct = rec["failed"] == 0 and not rec["problems"]
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": {name: {"value": value, "unit": units_of(spec)[name]}
                                  for name, value in rec["metrics"].items()}}))
    return 0


def units_of(spec: dict) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
