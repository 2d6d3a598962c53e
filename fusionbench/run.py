#!/usr/bin/env python3
"""Build and run the FusionStore benchmark.

    python3 fusionbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 fusionbench/run.py --selftest

Run from the root of the repository. The benchmark is a CMake package
of its own (fusionbench/CMakeLists.txt) that compiles the library
sources under src/; it is configured and built into
.bench_build/fusionbench on first use. The run's last line of standard
output is the JSON result; build output goes to standard error.
--selftest builds everything and runs the metric-math and lint tests.

The benchmark binary runs with every FUSION_* variable removed from its
environment, so thread count, cache size, SIMD level and dump paths
come from the benchmark alone.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fusionbench")


def build(targets):
    """Configure (once) and build; returns True on success."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if rc != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    for t in targets:
        cmd += ["--target", t]
    return subprocess.call(cmd, stdout=log, stderr=log) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build([]):
            return 2
        return subprocess.call(["ctest", "--output-on-failure"], cwd=BUILD,
                               stdout=sys.stderr, stderr=sys.stderr)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["fusionbench"]):
        print("fusionbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "fusionbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, args.workload + ".host_trace.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("FUSION_")}
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
