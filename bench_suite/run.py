#!/usr/bin/env python3
"""Build bench_suite from this checkout, then run it with the given flags.

Run from the repository root:

    python3 bench_suite/run.py --workload tpcc_paper --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build at the
repository root (CMake, Release, Ninja when available). Every flag is
passed to the bench_suite binary unchanged; its exit code is returned and
the last line it prints is the result object. Without the dbsm sources
next to this directory nothing is built or run and the exit code is 2.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the bench_suite target; False on error."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "bench_suite", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    sources = [os.path.join(ROOT, "CMakeLists.txt"),
               os.path.join(ROOT, "src", "core", "experiment.hpp")]
    if not all(os.path.isfile(p) for p in sources):
        print("bench_suite: no dbsm sources in %s" % ROOT, file=sys.stderr)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("bench_suite: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "bench_suite")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
