#!/usr/bin/env python3
"""Build the perfbench binary in Release and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload deque_ends --seed 1 --seconds 10 --trace 0

The first call configures and builds into .bench_build/perfbench (build
output goes to stderr); later calls rebuild only what changed. All
arguments are forwarded to the binary, whose last stdout line is the JSON
result. Exits non-zero, without a result line, when the build fails (for
example when the product sources under src/ are missing).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    product = os.path.join(HERE, "..", "src", "exec", "include", "dcd", "exec",
                           "executor.hpp")
    if not os.path.isfile(product):
        print("perfbench: product sources not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
