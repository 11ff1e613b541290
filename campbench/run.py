#!/usr/bin/env python3
"""Build and run the campaign benchmark from the root of a checkout.

    python3 campbench/run.py --workload pair_grid --seed 1 --seconds 20 --trace 0
    python3 campbench/run.py --self-test

The benchmark is its own CMake package (campbench/CMakeLists.txt) that
compiles the collie library from src/.  It is configured as a Release build
into $CARGO_TARGET_DIR/campbench (default .bench_build/campbench), built on
every call (a no-op once up to date) and then run.  Build output goes to
stderr so the benchmark's JSON stays the last line of stdout.  Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "campbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", target, "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.self_test:
        exe = build("campbench_selftest")
        if exe is None:
            print("campbench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([exe], cwd=build_dir()).returncode
    if not args.workload:
        ap.error("--workload is required")

    exe = build("campbench")
    if exe is None:
        print("campbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir(), "work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("campbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
