#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a source tree:

    python3 perfbench/spread.py WORKLOAD [--runs 10] [--first-seed 1]

Runs the benchmark command of BENCHMARK.json once per seed (seeds
first-seed, first-seed+1, ...), then prints, per end-to-end metric, the
median, the quartile spread (Q3 - Q1) / median as `statistics.quantiles(n=4)`
gives it, and that spread against the metric's bound. A spread under a
third of the bound is steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: the benchmark failed")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {lines[-1]}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "steady" if spread < metric["bound"] / 3 else "NOT steady"
        print(f"{metric['name']:<20} median {med:<14.6g} spread {spread:6.3f} "
              f"bound {metric['bound']:.2f}  {verdict}")


if __name__ == "__main__":
    main()
