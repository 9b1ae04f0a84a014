#!/usr/bin/env python3
"""Runs one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload online_scale --seed 1 --seconds 10 --trace 0

Builds the runner and frserve from source (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build), runs the runner, and relays its
output; the last line of stdout is the run's JSON result. Without the
repository sources around perfbench/ the build fails and so does the run.
--tiny runs the small smoke shape (see smoke.py).
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("online_scale", "service_at_least_once")
RUNNER_TIMEOUT_S = 170


def build(build_dir):
    """Configures on first use and builds the two targets; logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_runner",
                  "frserve", "-j", str(os.cpu_count() or 2)])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    run_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench_runner"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--frserve=" + os.path.join(build_dir, "futurerand", "tools",
                                           "frserve"),
               # Relative, so the server's Unix socket path stays short.
               "--run-dir=" + os.path.relpath(run_dir, ROOT)]
    if args.tiny:
        command.append("--tiny")
    # Fixed malloc thresholds (no dynamic mmap threshold, no trimming):
    # memory a pass frees is reused by the next instead of being returned
    # and faulted in again, a cost that varied between runs by more than
    # the benchmark's bounds. frserve inherits the same setting.
    env = dict(os.environ, GLIBC_TUNABLES=(
        "glibc.malloc.mmap_threshold=33554432:"
        "glibc.malloc.trim_threshold=4294967296"))
    # Its own process group, so a timeout also stops the server it spawned.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        sys.stderr.write("benchmark runner timed out\n")
        sys.exit(1)
    if process.returncode != 0:
        sys.stderr.write(output)
        sys.exit(process.returncode or 1)
    sys.stdout.write(output)


if __name__ == "__main__":
    main()
