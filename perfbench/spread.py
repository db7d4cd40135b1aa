#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload fleet_service --seeds 1-5 [--trace 1]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles as a share of the median
(statistics.quantiles, n=4), next to the bound BENCHMARK.json gives it.
Exits non-zero when a run fails, a result is incorrect, the reported
metrics differ from BENCHMARK.json's lists, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    listed = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            ok = False
        if set(result["metrics"]) != {m["name"] for m in listed}:
            print(f"seed {seed}: metrics differ from BENCHMARK.json", file=sys.stderr)
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
        ), flush=True)

    for m in listed:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and spread > bound:
            flag, ok = "  OVER BOUND", False
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of its bound"
        print(f"{m['name']:<40} median {med:<14.6g} spread {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
