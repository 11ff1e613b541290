#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 campbench/spread.py --workload pair_grid --seeds 1-10 --seconds 24
    python3 campbench/spread.py --workload pair_grid --seeds 1-5 --trace 1

For every metric it prints the median over the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of that median -- the figure BENCHMARK.json's bounds are checked against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: outputs incorrect" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("\n%-40s %16s %-6s %10s" % ("metric", "median", "unit", "IQR/med"))
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = 0.0
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        print("%-40s %16.6g %-6s %10.4f" % (name, med, units[name], spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
