#!/usr/bin/env python3
"""Builds and runs the CloudViews benchmark.

    python3 perfbench/run.py --workload daily_build --seed 1 --seconds 18 --trace 0

Run from the repository root. The first run configures and builds the
repository's libraries plus the benchmark into .bench_build/perfbench (a
Release build); later runs only rebuild what changed. The last line of
standard output is the result JSON; the exit code is non-zero when the build
fails or the run finds a wrong output, a failed or refused job, or a failed
label check. See perfbench/README.md for the workloads and metrics.

    python3 perfbench/run.py --test

builds and runs the benchmark's own tests instead.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wire_recurring", "daily_build")
# A run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout build one at a time.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_benchmark(args):
    if not build(["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def run_tests():
    if not build(["perfbench", "perfbench_harness_test"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PERFBENCH_BIN=os.path.join(BUILD_DIR, "perfbench"))
    status = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_harness_test")]).returncode
    status |= subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "*_test.py", "-v"],
        env=env).returncode
    return 1 if status else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="work-size multiplier (below 1: reduced runs)")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
