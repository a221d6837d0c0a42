#!/usr/bin/env python3
"""stconvex benchmark: one closed-loop client in one process and thread.

    python3 perfbench/run.py --workload certify-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from `src/`
of that checkout, and the benchmark refuses to run without it. Workloads
(see workloads.py for how each job list is generated and checked):

  certify-grid      certify_region on the three flat charts; the PSD oracle in
                    `convexity` dominates, then `geometry.metric_at` and
                    `expressions.eval_jet2`.
  geodesic-probe    RK4 geodesics on the Schwarzschild exterior with margin
                    scans and flat closed loops; the unchecked `metric_at`
                    path dominates and `convexity` is never called.
  level-set-probes  fresh interior-Schwarzschild and Milne models per job and
                    ~200 foliation probes; every job misses the evaluator
                    cache and pays parsing and compilation.

The `cli` module is not measured: it adds only argument and report handling
to the same library calls.

Each job is timed around its library calls only; the correctness gate runs
after the clock stops, and a job that raises or fails its gate counts as
failed, and a run with a failed job reports `"correct": false`.
`--trace 0` prints the end-to-end metrics. `--trace 1` runs the first half
of the time untraced and the second half traced, and prints the per-layer
metrics. The last line of standard output is one JSON object. The exit
status is 0 whenever that line is printed, except when the traced run finds
a span that should have run silent (or one that should not have run
active): that is a fault of the tracing, and exits 1.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: set-up is measured in this process and in this many fresh processes
SETUP_REPLICAS = 6
#: peak memory is read once this many jobs have run, so that it does not
#: depend on how many jobs a faster library completes in the window
RSS_AFTER_JOBS = 40
REPLICA_TIMEOUT_S = 60
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Put the checkout's `src/` first on the path and import stconvex from it."""
    src = ROOT / "src"
    if not (src / "stconvex" / "__init__.py").is_file():
        raise SystemExit(f"error: no stconvex sources under {src}; run the benchmark "
                         "from the root of a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import stconvex
    if Path(stconvex.__file__).resolve().parent != (src / "stconvex").resolve():
        raise SystemExit(f"error: imported stconvex from {stconvex.__file__}, not {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Latencies and counts of the jobs run in one timed phase."""

    def __init__(self):
        self.latencies = []
        self.kind_latencies = {}
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.work = Counter()
        self.kinds = Counter()
        self.rss_mb = None


def run_phase(workload, jobs, seconds: float) -> Phase:
    """Closed loop: the next job starts when the previous one is checked.
    Runs for `seconds`, and on until every job kind has run once."""
    phase = Phase()
    missing = set(workload.kinds)
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline or missing:
        index, job = next(jobs)
        kind = workload.kind(job)
        missing.discard(kind)
        phase.attempted += 1
        start = clock()
        try:
            result = workload.run(job)
        except Exception:  # a failing job is counted, not fatal
            phase.failed += 1
            print(f"job {index} ({kind}) raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        elapsed = clock() - start
        phase.latencies.append(elapsed)
        phase.busy_s += elapsed
        phase.kinds[kind] += 1
        phase.kind_latencies.setdefault(kind, []).append(elapsed)
        phase.work.update(workload.work(job, result))
        problems = workload.check(job, result)
        if problems:
            phase.failed += 1
            print(f"job {index} ({kind}) failed its gate: {problems}", file=sys.stderr)
        if phase.rss_mb is None and phase.attempted >= RSS_AFTER_JOBS:
            phase.rss_mb = peak_rss_mb()
    if phase.rss_mb is None:
        phase.rss_mb = peak_rss_mb()
    return phase


def setup_replicas(args) -> list[float]:
    times = []
    for _ in range(SETUP_REPLICAS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=REPLICA_TIMEOUT_S, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_times) -> dict:
    lat = phase.latencies
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "samples_per_s": metric(phase.work["samples"] / phase.busy_s, "1/s"),
        "job_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "job_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(phase.rss_mb, "MB"),
    }


def reported_spans() -> tuple[str, ...]:
    """The spans reported as per-layer metrics: those some workload expects
    to run, so each is nonzero on at least one workload."""
    from tracer import SPAN_NAMES
    from workloads import WORKLOADS
    return tuple(name for name in SPAN_NAMES
                 if any(name in w.expected_spans for w in WORKLOADS.values()))


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    out = {}
    for name in reported_spans():
        out[f"{name}.calls"] = metric(tracer.calls[name], "count")
        out[f"{name}.self_s"] = metric(tracer.self_s[name], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    admissible = "convexity.admissible_c_interval"
    out["convexity.psd_evals_per_point"] = metric(
        ratio(tracer.within[(admissible, "numpy.linalg.eigvalsh")], tracer.calls[admissible]),
        "1/call")
    out["geodesics.metric_evals_per_step"] = metric(
        ratio(tracer.within[("geodesics.integrate_geodesic", "geometry.metric_at")],
              traced.work["rk4_steps"]), "1/step")
    lookups = tracer.calls["geometry.evaluator_for"]
    built = tracer.within[("geometry.evaluator_for", "geometry.MetricEvaluator.__init__")]
    out["geometry.evaluator_cache.hit_ratio"] = metric(ratio(lookups - built, lookups),
                                                       "ratio")
    plain = untraced.work["samples"] / untraced.busy_s
    with_trace = traced.work["samples"] / traced.busy_s
    out["trace.untraced_samples_per_s"] = metric(plain, "1/s")
    out["trace.traced_samples_per_s"] = metric(with_trace, "1/s")
    out["trace.slowdown"] = metric(plain / with_trace, "x")
    return out


def describe_phase(label: str, phase: Phase):
    print(f"{label}: {phase.attempted} jobs attempted, {phase.failed} failed, "
          f"{phase.busy_s:.3f} s busy; kinds {dict(phase.kinds)}; work {dict(phase.work)}")
    medians = {kind: round(statistics.median(lat) * 1e3, 1)
               for kind, lat in sorted(phase.kind_latencies.items())}
    print(f"{label} median latency by job kind (ms): {json.dumps(medians)}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    description = workload.describe()
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    import numpy
    print("env: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS}}))
    print("job list: " + json.dumps(description))
    jobs = enumerate(itertools.cycle(workload.jobs))
    setup_s = time.perf_counter() - _START

    problems = []
    if args.trace:
        from tracer import Tracer
        untraced = run_phase(workload, jobs, args.seconds / 2.0)
        with Tracer() as tracer:
            traced = run_phase(workload, jobs, args.seconds / 2.0)
        phases = (untraced, traced)
        metrics = per_layer(tracer, untraced, traced)
        for name in workload.expected_spans:
            if tracer.calls[name] == 0:
                problems.append(f"expected span {name} recorded no calls")
        for name in workload.absent_spans:
            if tracer.calls[name] != 0:
                problems.append(f"span {name} should not run on {args.workload} but "
                                f"recorded {tracer.calls[name]} calls")
        for ratio, base in (("convexity.psd_evals_per_point", "convexity.admissible_c_interval"),
                            ("geodesics.metric_evals_per_step",
                             "geodesics.integrate_geodesic")):
            if tracer.calls[base] and not metrics[ratio]["value"]:
                problems.append(f"{ratio} counted nothing although {base} ran")
        print("traced sites: " + json.dumps(dict(tracer.sites)))
    else:
        timed = run_phase(workload, jobs, args.seconds)
        phases = (timed,)
        metrics = end_to_end(timed, [setup_s] + setup_replicas(args))

    for label, phase in zip(("untraced", "traced") if args.trace else ("timed",), phases):
        describe_phase(label, phase)
    if not args.trace:
        print(f"job latency samples: {len(timed.latencies)} jobs, "
              f"{len(timed.latencies) - int(0.9 * len(timed.latencies))} at or beyond p90")
    attempted = sum(p.attempted for p in phases)
    if attempted > len(workload.jobs):
        print(f"note: the {len(workload.jobs)}-job list wrapped around")
    failed = sum(p.failed for p in phases)
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    pin_threads()
    import_library()
    sys.exit(main())
