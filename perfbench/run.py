#!/usr/bin/env python3
"""Builds bench_e2e from source, then runs one workload of it.

Run from the repository root:

  python3 perfbench/run.py --workload joins --seed 1 --seconds 5 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and trace files
to <build dir>/out. Build output goes to stderr; stdout is the benchmark's,
whose last line is the JSON result. Exits non-zero without a result when the
build fails, e.g. in a directory that holds the benchmark but not the
sources it builds.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "bench_e2e",
              "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", os.path.join(build_dir, "out")]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
