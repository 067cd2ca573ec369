#!/usr/bin/env python3
"""Build the benchmark harness from this checkout's sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
FEATHER libraries plus the harness (Release) under .bench_build/perfbench;
later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the harness's JSON result. Exits with the harness's
status (0 on a correct run), or 3 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "feather_perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "feather_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    os.makedirs(BUILD, exist_ok=True)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [EXE] + sys.argv[1:] + ["--out-dir", BUILD]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
