#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py

Builds like run.py, then checks that
  1. the span checker reports each nesting fault (ledger_selftest);
  2. on every workload, a short run that flips one output bit every few
     calls reports failed > 0, a nonzero error rate and correct == false;
  3. on every workload, a short clean traced run reports correct == true,
     failed == 0, no span violations, and every per-layer metric named in
     BENCHMARK.json.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

import run

SECONDS = "2"


def result_of(workload, trace, corrupt=0):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), "--corrupt", str(corrupt)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(ok, what):
    print("%-64s %s" % (what, "ok" if ok else "FAILED"), flush=True)
    if not ok:
        sys.exit(1)


def main():
    run.build()
    ledger = subprocess.run([os.path.join(run.BUILD, "ledger_selftest")])
    check(ledger.returncode == 0, "span checker flags every nesting fault")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    for workload in run.WORKLOADS:
        bad = result_of(workload, 0, corrupt=5)
        check(bad["failed"] > 0 and not bad["correct"],
              "%s: corrupted outputs give error_rate %.3f > 0"
              % (workload, bad["failed"] / bad["attempted"]))
        good = result_of(workload, 1)
        metrics = good["metrics"]
        check(good["correct"] and good["failed"] == 0,
              "%s: clean traced run is correct" % workload)
        check(metrics["ledger.span_violations"]["value"] == 0,
              "%s: spans nest within their calls" % workload)
        missing = [m for m in per_layer if m not in metrics]
        check(not missing, "%s: every per-layer metric reported %s"
              % (workload, missing or ""))


if __name__ == "__main__":
    main()
