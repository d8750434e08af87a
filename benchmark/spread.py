#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles) next to its bound
from BENCHMARK.json.

Run from the repository root after building the benchmark:

    python3 benchmark/spread.py --workload skewed-large --seeds 1-10

Each run's result line is appended to --log (default
benchmark/target/spread.jsonl) so figures can be re-read later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=os.path.join("benchmark", "target", "spread.jsonl"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: ok", flush=True)

    print(f"{'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = "     n/a"
        bound = m.get("bound")
        print(f"{m['name']:<40} {med:14.4f} {spread} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
