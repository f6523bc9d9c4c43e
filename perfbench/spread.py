#!/usr/bin/env python3
"""Repeat one workload with distinct seeds and report each metric's spread.

    python3 perfbench/spread.py --workload media-faults --runs 10
    python3 perfbench/spread.py --workload rate1-guard --runs 5 --trace 1

Run from the repository root. Each run is the command in BENCHMARK.json
with --seed 1, 2, ... and BENCHMARK.json's run_seconds. For every metric
the script prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next to
the metric's bound for end-to-end metrics, flagging a spread over the
bound or over a third of it. It also prints each run's failed share of attempted
jobs, which must be identical across runs. Exits 1 if a run fails or
prints an incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, shares, ok = {}, [], True
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        shares.append(res["failed"] / res["attempted"])
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} correct {res['correct']}",
              file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{args.workload}: {len(shares)} runs of {seconds}s, trace {args.trace}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of bound"
        b = f"{bound:6.2f}" if bound is not None else ""
        print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b:>6}{flag}")
    same = len(set(shares)) <= 1
    print(f"failed share per run: {sorted(set(shares))} ({'identical' if same else 'DIFFERS'})")
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
