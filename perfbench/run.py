#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/vmlp_perfbench.cpp and the simulator libraries it links
(Release, from source) under .bench_build/ in the repository root, then runs
it with the given arguments. The benchmark prints its report and, as the last
stdout line, one JSON result object; its exit code is passed through. Build
output goes to stderr. Traced runs (--trace 1) write their host spans to
.bench_build/traces/<workload>.trace.json (Chrome/Perfetto JSON).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "vmlp_perfbench")
JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "vmlp_perfbench", "-j", JOBS])
    for cmd in steps:
        # Keep stdout for the result: build chatter goes to stderr.
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    cmd = [BINARY, *sys.argv[1:], "--trace-dir", TRACE_DIR]
    sys.exit(subprocess.run(cmd, check=False).returncode)


if __name__ == "__main__":
    main()
