#!/usr/bin/env python3
"""Builds bench_mbsp from source and runs one workload.

Run from the repository root:

    python3 bench_mbsp/run.py --workload lns-mid --seed 1 --seconds 30 --trace 0

The first call configures and builds the core library plus the benchmark
into .bench_build/ (later calls only re-check the build). The benchmark
writes its scratch files, sockets and traces under .bench_run/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of an untraced run; with --trace 1 they are the
per-layer metrics of a traced run, whose Chrome trace-event JSON is left in
.bench_run/trace-<workload>.json. The line before it is the benchmark's own
report, which also gives every metric's sample count.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_mbsp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_mbsp",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: {' '.join(step)}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(step)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace",
                    os.path.join(".bench_run", f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_mbsp did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run.py: bench_mbsp exited {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    section = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, metric in section.items():
        value = metric["value"]
        if value is None or not math.isfinite(value):
            print(f"run.py: metric {name} is not a number", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(lines[-1])
    print(json.dumps({
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
