#!/usr/bin/env python3
"""Perf-trajectory gate: compare a fresh BENCH_*.json against its baseline.

Each bench binary writes a BENCH_<name>.json report (see bench/bench_common.hpp,
PerfReport). Metrics carry their direction and a `gated` flag:

  * gated metrics are machine-relative (speedups over an in-process reference,
    deterministic cost ratios) and FAIL the run when they regress beyond the
    noise threshold relative to the committed baseline in bench/baselines/;
  * ungated metrics (absolute iters/s, peak RSS) track the host, so they are
    reported but never fail the gate;
  * exact metrics are gated metrics the seed alone determines (iteration-
    capped cost ratios, a hit rate over a fixed request stream). They FAIL
    on any change beyond EXACT_REL_TOL relative, better or worse: a plan
    that moved is re-recorded with --update, never absorbed by the noise
    threshold.

Usage:
  bench_compare.py BASELINE CURRENT [--threshold 0.10]
  bench_compare.py BASELINE CURRENT --update     # accept CURRENT as baseline

A missing BASELINE file is not an error: the bench is treated as new, the
gate is skipped with an actionable notice (run with --update to install
the baseline), and the exit status is 0 — so adding a bench binary never
breaks CI before its first baseline lands.

Exit status: 0 when every gated metric is within threshold, 1 otherwise.
Stdlib only — runs anywhere python3 does.
"""

import argparse
import json
import os
import shutil
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")


# Relative tolerance of an exact metric: room for the last bits of a
# geometric mean, nothing a moved plan could hide in.
EXACT_REL_TOL = 1e-9


def metric_row(name, bv, cv, higher, gated, threshold, exact=False):
    """One (metric, base, cur, gated, ok, detail) comparison row. Shared by
    declared metrics and top-level fields like peak_rss_mb, so every number
    gets the same direction/threshold treatment."""
    if bv is None:
        return (name, None, cv, gated, True, "new metric, not in baseline")
    if cv is None:
        return (name, bv, None, gated, not gated, "missing in current")
    if gated and exact:
        ok = abs(cv - bv) <= EXACT_REL_TOL * abs(bv)
        detail = "exact: equal" if ok else (
            f"exact: differs by {cv - bv:+.6g} (re-record with --update if "
            f"the plan change is intended)")
        return (name, bv, cv, gated, ok, detail)
    if bv == 0:
        return (name, bv, cv, gated, True, "zero baseline, skipped")
    if higher:
        ok = cv >= bv * (1.0 - threshold)
        detail = f"{cv / bv - 1.0:+.1%} vs baseline (floor {-threshold:.0%})"
    else:
        ok = cv <= bv * (1.0 + threshold)
        detail = f"{cv / bv - 1.0:+.1%} vs baseline (ceiling {threshold:+.0%})"
    return (name, bv, cv, gated, ok or not gated,
            detail if gated else detail + " [informational]")


def compare(baseline, current, threshold):
    """Returns a list of (metric, base, cur, gated, ok, detail) rows."""
    rows = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name, base in base_metrics.items():
        cur = cur_metrics.get(name)
        rows.append(metric_row(name, base["value"],
                               None if cur is None else cur["value"],
                               base.get("higher_is_better", True),
                               base.get("gated", False), threshold,
                               base.get("exact", False)
                               or (cur or {}).get("exact", False)))
    for name in cur_metrics:
        if name not in base_metrics:
            rows.append(metric_row(name, None, cur_metrics[name]["value"],
                                   True, False, threshold))
    # Top-level peak RSS rides the same row machinery as any other absolute
    # metric: lower is better, informational (it tracks the host, not the
    # code).
    if (baseline.get("peak_rss_mb") is not None
            or current.get("peak_rss_mb") is not None):
        rows.append(metric_row("peak_rss_mb", baseline.get("peak_rss_mb"),
                               current.get("peak_rss_mb"), False, False,
                               threshold))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative noise threshold for gated metrics "
                             "(default 0.10)")
    parser.add_argument("--update", action="store_true",
                        help="copy CURRENT over BASELINE and exit 0")
    args = parser.parse_args()

    if args.update:
        load(args.current)  # refuse to install malformed JSON
        os.makedirs(os.path.dirname(args.baseline) or ".", exist_ok=True)
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.current} -> {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        current = load(args.current)
        print(f"bench_compare: new benchmark '{current.get('bench')}' — "
              f"no baseline at {args.baseline}")
        print(f"  install one with: tools/bench_compare.py {args.baseline} "
              f"{args.current} --update")
        print("bench_compare: gate skipped (nothing to compare against)")
        return 0

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline.get("bench") != current.get("bench"):
        sys.exit(f"bench_compare: bench mismatch: baseline is "
                 f"'{baseline.get('bench')}', current is "
                 f"'{current.get('bench')}'")

    rows = compare(baseline, current, args.threshold)
    failed = [r for r in rows if not r[4]]
    print(f"bench '{current.get('bench')}' vs {args.baseline} "
          f"(threshold {args.threshold:.0%}):")
    for name, bv, cv, gated, ok, detail in rows:
        flag = "FAIL" if not ok else ("gate" if gated else "info")
        fmt = lambda v: "-" if v is None else f"{v:.6g}"
        print(f"  [{flag}] {name}: {fmt(bv)} -> {fmt(cv)}  {detail}")
    if failed:
        print(f"bench_compare: {len(failed)} gated metric(s) regressed "
              f"beyond {args.threshold:.0%}", file=sys.stderr)
        return 1
    print("bench_compare: all gated metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
