#!/usr/bin/env python3
"""One command for the map benchmark.

    python3 mapbench/run.py --workload ingest|standing|serve --seed N \
        --seconds S --trace 0|1

Configures and builds mapbench/ (its own CMake project, which compiles the
program's libraries from src/) into .bench_build/ on first use, then runs
the benchmark binary from the repository root. Build output goes to stderr;
the binary's stdout passes through unchanged, so its last line is the JSON
result. Run files (WAL, segments, traces) go to .bench_out/. Exits non-zero
if the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "mapbench")


def configured_here():
    """True if BUILD holds a CMake cache for this source tree."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build():
    if not configured_here():
        shutil.rmtree(BUILD, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "mapbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--out", OUT]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
