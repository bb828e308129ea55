#!/usr/bin/env python3
"""Builds and runs the srra benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the benchmark (and the srra library
it measures) in Release under .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. The exit code is the
benchmark's: nonzero when the build fails or any output is wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["warm_hits", "cold_misses", "mixed_churn", "dse_pareto"]


def build(target):
    """Configures once, then builds `target`; returns its path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench_tests" if args.self_test else "srra_perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([binary]).returncode
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
