#!/usr/bin/env python3
"""Self-test of the benchmark; leaves the library untouched.

    python3 perfbench/selftest.py

1. Runs every workload for one second with `--trace 0` and with `--trace 1`
   and checks that the last line is a well-formed, correct result with no
   failed job and exactly the metrics BENCHMARK.json names for that mode,
   each with its unit.
2. Runs one job of every kind in this process and checks that the
   correctness gate accepts the library's answer, and rejects it when the
   job's expected value is deliberately wrong. A pole crossing whose last
   sample is moved away from the pole must be rejected too.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_metrics_printed(failures: list[str]):
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            out = subprocess.run(
                [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            if out.returncode != 0:
                failures.append(f"{label} exited {out.returncode}: {out.stderr[-2000:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys are {sorted(result)}")
            if result["attempted"] < 1 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: correct={result['correct']}, "
                                f"{result['failed']} of {result['attempted']} failed")
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = result["metrics"]
            if set(printed) != set(expected):
                failures.append(f"{label}: missing {sorted(set(expected) - set(printed))}, "
                                f"unexpected {sorted(set(printed) - set(expected))}")
            for name, unit in expected.items():
                m = printed.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    failures.append(f"{label}: {name} has unit {m.get('unit')!r}, not {unit!r}")
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{label}: {name} = {value!r} is not a finite number")
            print(f"ok: {label} printed {len(printed)} metrics", flush=True)


def gate_cases(workloads):
    """(label, workload, job, the same job with a wrong expected value)."""
    certify = workloads.CertifyGrid(7, blocks=1)
    for chart in workloads.CERTIFY_CHARTS:
        box = next(job.box for job in certify.jobs if job.chart == chart)
        good = workloads.CertifyJob(chart, 0.6, box, 3)
        yield f"certify {chart} certified", certify, good, replace(good, alpha=0.6 + 1e-7)
        bad = replace(good, alpha=1.2)
        yield f"certify {chart} violated", certify, bad, replace(bad, alpha=0.9)
    geodesic = workloads.GeodesicProbe(7, blocks=1)
    job = next(j for j in geodesic.jobs if j.kind == "P")
    t, radius, z = job.loop
    yield ("geodesic pole crossing and loop", geodesic, job,
           replace(job, loop=(t, radius * 1.001, z)))
    for kind, wrong in (("B", "P"), ("S", "B")):
        job = replace(next(j for j in geodesic.jobs if j.kind == kind), steps=100)
        yield f"geodesic {kind}", geodesic, job, replace(job, kind=wrong)
    level_set = workloads.LevelSetProbes(7, blocks=1)
    job = level_set.jobs[0]
    yield "level-set batch", level_set, job, replace(job, m=job.m * 1.0001)


def moved_off_pole(result):
    """A pole-crossing result whose last sample is put back at theta = 0.5."""
    import stconvex as sc
    trajectory, margins, loop = result
    lam, state = trajectory.samples[-1]
    coords = list(state.position.coordinates)
    coords[2] = 0.5
    last = (lam, sc.GeodesicState.of(coords, state.velocity.components))
    return replace(trajectory, samples=trajectory.samples[:-1] + (last,)), margins, loop


def check_gates(failures: list[str]):
    import workloads
    ready = set()
    for label, workload, good, wrong in gate_cases(workloads):
        if id(workload) not in ready:
            workload.setup()
            ready.add(id(workload))
        result = workload.run(good)
        problems = workload.check(good, result)
        if problems:
            failures.append(f"gate rejected a {label} answer: {problems}")
        if not workload.check(wrong, result):
            failures.append(f"gate accepted a {label} answer against a wrong expected value")
        if label == "geodesic pole crossing and loop" and \
                not workload.check(good, moved_off_pole(result)):
            failures.append("gate accepted a pole crossing that stops at theta = 0.5")
        print(f"ok: gate on {label}", flush=True)


def main() -> int:
    failures = []
    check_gates(failures)
    check_metrics_printed(failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    run.pin_threads()
    run.import_library()
    sys.exit(main())
