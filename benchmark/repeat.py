#!/usr/bin/env python3
"""Runs one workload N times, one seed each, and prints the spread of
every metric: median, quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, and min/max.

    python3 benchmark/repeat.py --workload cold-topk --runs 10 --seconds 40

Run i uses seed i (1..N) and --trace 0. Stops with an error at the
first run that exits non-zero, as topkjoin_bench does on incorrect
output or a failed operation.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()

    values, units, shares = {}, {}, set()
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, args.seconds)
        shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, "
          f"failed/attempted {sorted(shares)}")
    print(f"{'metric':36} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'min':>12} {'max':>12}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {min(vals):12.6g} {max(vals):12.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
