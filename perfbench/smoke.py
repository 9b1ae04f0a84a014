#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json at the tiny shape, once untraced and
once traced, and fails unless each run is correct and prints every
end-to-end (untraced) or per-layer (traced) metric that BENCHMARK.json
names, as a finite number with the unit BENCHMARK.json gives it.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload, trace, expected):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "2",
               "--trace", str(trace), "--tiny"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        return ["exit code %d: %s" % (run.returncode, run.stderr[-2000:])]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append("correctness checks failed")
    metrics = result["metrics"]
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append("%s not printed" % name)
        elif not isinstance(metric["value"], (int, float)) or not math.isfinite(
                metric["value"]):
            problems.append("%s is not a finite number" % name)
        elif metric["unit"] != unit:
            problems.append("%s has unit %r, expected %r" %
                            (name, metric["unit"], unit))
    problems += ["%s printed but not named in BENCHMARK.json" % name
                 for name in metrics if name not in expected]
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_run(workload["name"], trace, expected)
            print("%-24s trace=%d %s" % (workload["name"], trace,
                                         "ok" if not problems else "FAIL"))
            for problem in problems:
                print("    " + problem)
            failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
