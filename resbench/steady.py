#!/usr/bin/env python3
"""Runs one workload as two interleaved sets of runs of the same build and
prints, for every metric, each set's median, quartiles and spread (the
distance between the quartiles as a share of the median), the distance
between the two medians, and the calibration loop's times.

    python3 resbench/steady.py --workload solve --runs 10 --seconds 10

Set A uses seeds 1 .. runs and set B the next `runs` seeds; the runs
alternate A, B, A, B so that machine drift falls on both sets alike. Every
run is untraced (`--trace 0`), so the metrics are the end-to-end ones. Run
it from the root of a checkout, like the benchmark itself.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    cmd = ["bash", "resbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    calib = next((l for l in lines if l.startswith("calibration_ms")), "")
    return json.loads(lines[-1]), calib


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("nan")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args()
    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for name, offset in (("A", 0), ("B", args.runs)):
            seed = 1 + offset + i
            result, calib = run(args.workload, seed, args.seconds)
            sets[name].append(result)
            share = result["failed"] / result["attempted"]
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"set {name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} ({share:.6f}) {calib}\n    {values}", flush=True)
    print(f"\n{'metric':24} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for metric in sets["A"][0]["metrics"]:
        medians = {}
        for name, results in sets.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, spread = summary(values)
            medians[name] = med
            print(f"{metric:24} {name:3} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}")
        both = [r["metrics"][metric]["value"] for rs in sets.values() for r in rs]
        med, q1, q3, spread = summary(both)
        print(f"{metric:24} all {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}")
        if medians["A"]:
            print(f"{metric:24} B/A-1 {medians['B'] / medians['A'] - 1:+.2%}")
    shares = {name: {r["failed"] / r["attempted"] for r in results} for name, results in sets.items()}
    print(f"\nfailed shares: A {sorted(shares['A'])} B {sorted(shares['B'])}")
    print("all correct:", all(r["correct"] for rs in sets.values() for r in rs))


if __name__ == "__main__":
    main()
