#!/usr/bin/env python3
"""Builds the library and the call-level benchmark from source, runs one
workload, and prints its metrics.

    python3 perfbench/run.py --workload infer_steady|serve_churn|train_step \
        --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). The build lives in .bench_build/ at the root; the first run
configures and compiles it, later runs only recompile what changed. Build
output goes to stderr. Standard output carries one line per metric and, as
its last line, the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans of the traced phase are also written to
.bench_build/traces/<workload>.spans.csv. Exits non-zero, without a result
line, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ctb_callbench")
WORKLOADS = ("infer_steady", "serve_churn", "train_step")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def parse_result(line):
    """The binary's last line, checked against the result schema."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("malformed metric %s" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt", type=int, default=0,
                        help="flip one output bit every N calls (self-test)")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", str(args.corrupt)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, args.workload + ".spans.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % run.returncode)
    try:
        result = parse_result(lines[-1])
    except ValueError as e:
        sys.exit("perfbench: bad result line: %s" % e)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
