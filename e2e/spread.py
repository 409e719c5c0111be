#!/usr/bin/env python3
"""Run the benchmark N times per workload, each with another seed, and
print what the driver computes: per end-to-end metric the median, the
quartiles, and (Q3 - Q1) / median against the metric's bound.

    python3 e2e/spread.py [--runs 10] [--first-seed 1] [--workload NAME]... [--json OUT]

Run from the repository root (it runs the command of BENCHMARK.json).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="write medians and quartiles here")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    baseline = {}
    worst = 0.0
    for workload in workloads:
        values, walls = {}, []
        for run in range(args.runs):
            seed = args.first_seed + run
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            start = time.time()
            done = subprocess.run(command, capture_output=True, text=True)
            walls.append(time.time() - start)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, {statistics.median(walls):.1f} s each "
              f"(max {max(walls):.1f} s)")
        baseline[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else [series[0]] * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = f"  bound {bound:.0%}"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
                    note += "  OVER" if spread > bound else ("  ok" if spread < bound / 3 else "  wide")
            print(f"  {name:<38} median {median:>14.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}"
                  f"  spread {spread:6.2%}{note}")
            baseline[workload][name] = {"median": median, "q1": q1, "q3": q3, "runs": len(series)}
    print(f"worst spread / bound: {worst:.2f}")
    if args.json:
        json.dump({"cpus": os.cpu_count(), "run_seconds": bench["run_seconds"],
                   "first_seed": args.first_seed, "runs": args.runs,
                   "working_seed": 42, "held_out_seed": 7, "workloads": baseline},
                  open(args.json, "w"), indent=1)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
