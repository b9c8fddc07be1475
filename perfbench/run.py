#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload walk_range --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The engine libraries in src/ and the
benchmark in perfbench/ are compiled (Release) into .bench_build/ on the
first call and only rebuilt when a source changed. All arguments go to the
benchmark binary; its last stdout line is the JSON result. Build output goes
to stderr. Exits non-zero, printing no result, when the sources are missing
or the build fails.
"""

import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")

_child = None


def _forward(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.send_signal(signum)


def _run(argv, **kwargs):
    """Runs one child to completion, passing SIGINT/SIGTERM on to it."""
    global _child
    _child = subprocess.Popen(argv, **kwargs)
    try:
        return _child.wait()
    finally:
        if _child.poll() is None:
            _child.kill()
            _child.wait()
        _child = None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources not found at %s/src" % ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if _run(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs]
    return _run(compile_, stdout=sys.stderr) == 0


def main():
    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return _run([BINARY] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
