#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

Run from the repository root:

    python3 edde_bench/run.py --workload train_resnet --seed 1 --seconds 45 --trace 0
    python3 edde_bench/run.py --selftest

The build goes to .bench_build/ and traced runs write to .bench_out/, both
under the repository root. Build output goes to stderr; the benchmark's own
stdout is passed through, so its last line is the result JSON.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "edde_bench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train_resnet", "serve_textcnn")
# A run measures --seconds plus set-up and checks; anything far beyond that
# is a hang, and the run must still end within its time limit.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    """Configures (once) and incrementally builds the benchmark binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("edde_bench: no src/CMakeLists.txt under %s; run from the "
                 "repository root" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            sys.exit("edde_bench: cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
                       stdout=sys.stderr) != 0:
        sys.exit("edde_bench: build failed")


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("edde_bench: %s did not finish within %d s"
                 % (os.path.basename(cmd[0]), RUN_TIMEOUT_S))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the self-test of the benchmark's checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    sys.stdout.flush()
    if args.selftest:
        return run([os.path.join(BUILD_DIR, "edde_bench_selftest")])
    os.makedirs(OUT_DIR, exist_ok=True)
    # Set-up is timed from here: the benchmark process starts right after.
    return run([os.path.join(BUILD_DIR, "edde_bench"),
                "--workload=" + args.workload,
                "--seed=%d" % args.seed,
                "--seconds=%d" % args.seconds,
                "--trace=%d" % args.trace,
                "--out_dir=" + OUT_DIR,
                "--launch_time=%.9f" % time.monotonic()])


if __name__ == "__main__":
    sys.exit(main())
