#!/usr/bin/env python3
"""Build and run the Browsix end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Configures and builds e2ebench/ (which pulls in the repository's library
from the parent directory) under .bench_build/e2ebench, then runs the
benchmark binary and passes its output through. The last line of
standard output is the result object. Traced runs write their Chrome
trace-event JSON under .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

# A run measures at most 60 s plus its set-ups; anything past this is a
# hang, and the run fails rather than blocking its caller.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "browsix.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository source {needed} not found next to {HERE}")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.selftest:
        cmd = [binary, "--selftest", "--seed", str(args.seed)]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(TRACES, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                TRACES, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
