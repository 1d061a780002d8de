#!/usr/bin/env python3
"""Checks that bench_mbsp repeats: two interleaved sets of runs must agree.

Run from the repository root:

    python3 bench_mbsp/check_repeat.py --runs 3 --seed 1

Every workload of BENCHMARK.json runs 2 x RUNS times through run.py, all
at the same seed, alternating set A and set B. For each end-to-end metric
the script prints both sets' median and quartiles, and fails when the two
medians differ by more than the metric's bound (a share of set A's
median). Values that depend on the seed alone (cost_ratio) must repeat
exactly. Exit status 0 means every workload repeated.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """One untraced run; returns (result line, benchmark report)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited "
                           f"{done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set (default 3)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for _ in range(args.runs):
            for name in ("A", "B"):
                sets[name].append(run_once(workload, args.seed,
                                           benchmark["run_seconds"]))
        print(f"== {workload} ({args.runs} runs per set, seed {args.seed})",
              flush=True)
        for metric, bound in bounds.items():
            values = {name: [r["metrics"][metric]["value"] for r, _ in runs]
                      for name, runs in sets.items()}
            qa, qb = quartiles(values["A"]), quartiles(values["B"])
            shift = abs(qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            verdict = "ok" if shift <= bound else "FAIL"
            ok = ok and verdict == "ok"
            print(f"  {metric:18s} A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  shift {shift:.4f} (bound {bound}) {verdict}", flush=True)
        for run in sets["A"] + sets["B"]:
            if not run[0]["correct"] or run[0]["failed"] != 0:
                ok = False
                print(f"  FAIL: a run reported failures: "
                      f"{run[1].get('first_failure', '')}")
        exact = [run[1]["exact"] for run in sets["A"] + sets["B"]]
        for key in exact[0]:
            distinct = {e.get(key) for e in exact}
            verdict = "ok" if len(distinct) == 1 else "FAIL"
            ok = ok and verdict == "ok"
            print(f"  exact {key:14s} {sorted(distinct, key=str)} {verdict}",
                  flush=True)
    print("repeat check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
