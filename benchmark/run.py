#!/usr/bin/env python3
"""Builds topkjoin_bench from this checkout and runs one workload.

    python3 benchmark/run.py --workload cold-topk --seed 1 --seconds 40 --trace 0

The first run configures and builds benchmark/CMakeLists.txt (the
library in Release, metrics compiled in, failpoints compiled out) into
.bench_build/ at the checkout root; later runs only rebuild what
changed. Build output goes to standard error, so the last line of
standard output is the JSON result of topkjoin_bench. Every argument
is passed to it (see benchmark/main.cc).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "topkjoin_bench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", HERE, "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DTOPKJOIN_METRICS=ON",
            "-DTOPKJOIN_FAILPOINTS=OFF",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", BUILD, "--target", "topkjoin_bench",
                "-j", "4"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
