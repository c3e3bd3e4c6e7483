#!/usr/bin/env python3
"""Runs two sets of benchmark runs of the same build and compares them.

    python3 perfbench/steadiness.py [--runs N] [--workloads a,b]

Run from the root of a checkout. Every run lasts BENCHMARK.json's
run_seconds and uses its own seed (set k, run i uses seed 1000*k + i + 1).
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile range over the median, as
statistics.quantiles(values, n=4) gives the quartiles) and whether it is
within the metric's bound in BENCHMARK.json, and how far the second set's
median lies from the first's, in either direction. Exits 1 when any spread
or any median shift exceeds its metric's bound, or when the share of failed
operations differs between the sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


SETS = 2


def worse(first, second, better):
    """Relative worsening of `second` against `first` (positive = worse)."""
    if first == 0:
        return float("inf")
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    results = {}
    for w in workloads:
        for k in range(SETS):
            for i in range(args.runs):
                seed = 1000 * k + i + 1
                r = run_once(w, seed, seconds)
                results.setdefault(w, [[] for _ in range(SETS)])[k].append(r)
                print(f"{w} set {k} seed {seed}: " + ", ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<15} {'metric':<17} {'set':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} verdict")
    for w in workloads:
        sets = results[w]
        shares = {(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
                  for s in sets}
        fail_shares = {f / a for f, a in shares}
        if len(fail_shares) > 1:
            ok = False
            print(f"{w}: failed share differs between sets: {sorted(fail_shares)}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                verdict = "ok"
                if spread > bound:
                    verdict = "SPREAD"
                    ok = False
                elif spread > bound / 3:
                    verdict = "ok (>1/3 bound)"
                print(f"{w:<15} {name:<17} {k:>3} {q1:>12.6g} {q2:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.3f} {bound:>6} {verdict}")
            shift = worse(medians[0], medians[1], m["better"])
            if abs(shift) > bound:
                ok = False
            print(f"{w:<15} {name:<17} set 1 vs 0: median worse by "
                  f"{100 * shift:+.1f}% "
                  f"({'ok' if abs(shift) <= bound else 'SHIFT'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
