#!/usr/bin/env python3
"""Build the hpm migration benchmark from source and run one workload.

    python3 perfbench/run.py --workload linpack --seed 1 --seconds 10 --trace 0

Run from the repository root. The build lives in .bench_build/perfbench
(configured once, rebuilt incrementally on every call); each run works in
its own scratch directory under .bench_build and removes it afterwards.
The last line on stdout is the JSON result printed by migbench.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def run_quiet(cmd, timeout):
    """Run a build step with its output sent to stderr."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: hpm sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", BUILD, "--target", "migbench", "-j", "4"], 850)
    return os.path.join(BUILD, "migbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")

    scratch = os.path.join(BUILD_ROOT, f"run-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=args.seconds + 150, check=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = proc.stdout.decode()
    sys.stdout.write(out)
    if proc.returncode != 0 or not out.strip():
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
