#!/usr/bin/env python3
"""Build and run the netuncert end-to-end benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `netuncert_serve` from the workspace and the benchmark package in
perfbench/ (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), prints the environment header (commit, rustc, CPUs, CPU
model), then runs one workload. The last stdout line is the run's JSON
result. Workloads and metrics are described in perfbench/NOTES.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["solve_n512", "bracket_n512", "churn_n512", "sweep_e15"]


def build(cmd, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(proc.returncode or 1)


def output(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def commit():
    # Only this tree's own repository counts, never an enclosing one.
    if output(["git", "rev-parse", "--show-toplevel"]) != ROOT:
        return "unknown (not a git checkout)"
    sha = output(["git", "rev-parse", "--short=10", "HEAD"])
    dirty = output(["git", "status", "--porcelain", "--untracked-files=no"])
    return sha + ("-dirty" if dirty else "")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    for needed in ["Cargo.toml", "crates/serve/Cargo.toml", "perfbench/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a netuncert source tree",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "-q",
           "-p", "netuncert-serve", "--bin", "netuncert_serve"], env)
    build(["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], env)

    print("# netuncert perfbench record")
    print(f"commit:     {commit()}")
    print(f"rustc:      {output(['rustc', '-V']) or 'unknown'}")
    print(f"nproc:      {len(os.sched_getaffinity(0))}")
    print(f"cpu_model:  {cpu_model()}")
    sys.stdout.flush()

    release = os.path.join(target, "release")
    proc = subprocess.run([
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(release, "netuncert_serve"),
    ], cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
