#!/usr/bin/env python3
"""Repo benchmark: builds lhg_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The first call configures and builds
the library and the benchmark (Release) under .bench_build/perfbench;
later calls rebuild only what changed.

An untraced run (--trace 0) splits its --seconds over PROCESSES
sequential processes of the binary, each continuing the op sequence of
the one before, and combines their results (see combine()).  Memory-
bound ops run at a speed that differs from process to process, with
the physical memory each one gets; spreading a run over several
processes keeps that from deciding the run's figures.  A traced run is
one process.

The binaries' reports go to stdout and the last line is the JSON
result, checked against BENCHMARK.json (every declared metric, each
with its unit).  Exit status is non-zero, with no result line, when the
build, a run or that check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
PROCESSES = 10


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another source tree
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs)])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "lhg_perfbench"


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a non-negative whole number")
    if result["attempted"] < 1:
        fail("no op was attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != want[name]:
            fail(f"{name}: unit {metric.get('unit')!r}, declared {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")
        if not trace and value <= 0:
            fail(f"{name}: end-to-end value {value!r} is not positive")
    return result


def combine(results):
    """One untraced result from the results of a run's processes.

    setup_s (each process sets up once) and peak_rss_mb are the medians
    over the processes.
    wall_ms_p50 is the mean of the processes' median op walls: a
    process's speed depends on its memory, and the mean takes every
    process into account where a median would pick one.  ops_per_s is
    all ops over all timed seconds."""
    def values(name):
        return [r["metrics"][name]["value"] for r in results]

    attempted = sum(r["attempted"] for r in results)
    timed_s = sum(r["attempted"] / r["metrics"]["ops_per_s"]["value"]
                  for r in results)
    combined = {
        "setup_s": statistics.median(values("setup_s")),
        "wall_ms_p50": statistics.fmean(values("wall_ms_p50")),
        "ops_per_s": attempted / timed_s,
        "peak_rss_mb": statistics.median(values("peak_rss_mb")),
    }
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0 and all(r["correct"] for r in results),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value,
                               "unit": results[0]["metrics"][name]["unit"]}
                        for name, value in combined.items()}}


def run_binary(cmd, env, timeout):
    """Runs one process; returns its report lines and its result line."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"lhg_perfbench exited with status {proc.returncode}")
    return lines[:-1], lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    lanes = len(os.sched_getaffinity(0))
    binary = build(lanes)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    env = dict(os.environ, LHG_THREADS=str(lanes))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        spans = BUILD / f"spans-{args.workload}-{args.seed}.json"
        report, line = run_binary(
            cmd + ["--seconds", str(args.seconds), "--spans", str(spans)],
            env, RUN_TIMEOUT_S)
        result = check_result(line, spec, True)
    else:
        report, results = [], []
        for i in range(PROCESSES):
            first_op = sum(r["attempted"] for r in results)
            lines, line = run_binary(
                cmd + ["--seconds", str(args.seconds / PROCESSES),
                       "--first-op", str(first_op)],
                env, max(1.0, deadline - time.monotonic()))
            report += [f"process {i + 1}/{PROCESSES}:"] + lines
            results.append(check_result(line, spec, False))
        result = check_result(json.dumps(combine(results)), spec, False)
        report.append(f"combined over {PROCESSES} processes: " + ", ".join(
            f"{k} {m['value']:.6g} {m['unit']}"
            for k, m in result["metrics"].items()) +
            f", failed_ratio {result['failed'] / result['attempted']:.6g}"
            f" ({result['failed']} of {result['attempted']} ops)")
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
