#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload bitonic --seeds 1-10 [--seconds 10] [--trace 0]

For every metric: the median over the runs and the interquartile range
(statistics.quantiles, n=4) as a share of that median, next to the bound
BENCHMARK.json fixes for it. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout.decode()
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}"
                                         for k, m in result["metrics"].items()),
              flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{args.workload:7s} {name:24s} median {med:14.6g}  iqr/median {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else ""))


if __name__ == "__main__":
    main()
