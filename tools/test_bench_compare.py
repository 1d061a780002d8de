#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (stdlib only; run with
`python3 tools/test_bench_compare.py`). Covers the perf-gate semantics the
CI jobs rely on — in particular that a fresh BENCH_*.json without a
committed baseline (a just-added bench like bench_repair) warns and skips
the gate instead of failing the build."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_compare.py")


BASELINES = os.path.join(os.path.dirname(os.path.dirname(TOOL)), "bench",
                         "baselines")

# The gated metrics the seed alone determines: each must gate exactly.
EXACT_METRICS = {
    "hetero": {"geomean_cost_ratio_lns"},
    "repair": {"repair_vs_resolve_cost_ratio"},
    "scale": {"sharded_over_seed_k1", "sharded_over_seed_k4",
              "sharded_over_seed_k8"},
    "daemon": {"exact_hit_rate"},
}


def report(bench="demo", value=1.0, gated=True, higher=True, exact=False):
    return {
        "bench": bench,
        "peak_rss_mb": 10.0,
        "metrics": {
            "metric": {"value": value, "higher_is_better": higher,
                       "gated": gated, "exact": exact},
        },
        "families": {},
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name, payload=None):
        p = os.path.join(self.dir.name, name)
        if payload is not None:
            with open(p, "w") as f:
                json.dump(payload, f)
        return p

    def run_tool(self, *args):
        return subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)

    def test_missing_baseline_warns_and_exits_zero(self):
        current = self.path("current.json", report())
        result = self.run_tool(self.path("no_such_baseline.json"), current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("no baseline", result.stdout)
        self.assertIn("gate skipped", result.stdout)
        self.assertIn("--update", result.stdout)  # actionable notice

    def test_within_threshold_passes(self):
        baseline = self.path("baseline.json", report(value=1.0))
        current = self.path("current.json", report(value=0.95))
        result = self.run_tool(baseline, current)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("all gated metrics within threshold", result.stdout)

    def test_gated_regression_fails(self):
        baseline = self.path("baseline.json", report(value=1.0))
        current = self.path("current.json", report(value=0.5))
        result = self.run_tool(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("[FAIL] metric", result.stdout)

    def test_lower_is_better_direction(self):
        baseline = self.path("baseline.json", report(value=1.0, higher=False))
        worse = self.path("worse.json", report(value=1.5, higher=False))
        better = self.path("better.json", report(value=0.5, higher=False))
        self.assertEqual(self.run_tool(baseline, worse).returncode, 1)
        self.assertEqual(self.run_tool(baseline, better).returncode, 0)

    def test_ungated_regression_is_informational(self):
        baseline = self.path("baseline.json", report(value=1.0, gated=False))
        current = self.path("current.json", report(value=0.1, gated=False))
        result = self.run_tool(baseline, current)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("[info]", result.stdout)

    def test_exact_metric_fails_on_any_change(self):
        baseline = self.path("baseline.json", report(value=0.98, exact=True,
                                                     higher=False))
        for value in (0.97, 0.99, 0.98 * (1 + 1e-7)):
            current = self.path("current.json",
                                report(value=value, exact=True, higher=False))
            result = self.run_tool(baseline, current)
            self.assertEqual(result.returncode, 1, value)
            self.assertIn("[FAIL] metric", result.stdout)
            self.assertIn("exact: differs", result.stdout)

    def test_exact_metric_passes_within_tolerance(self):
        baseline = self.path("baseline.json", report(value=0.98, exact=True))
        for value in (0.98, 0.98 * (1 + 1e-10)):
            current = self.path("current.json",
                                report(value=value, exact=True))
            result = self.run_tool(baseline, current)
            self.assertEqual(result.returncode, 0, result.stdout)
            self.assertIn("exact: equal", result.stdout)

    def test_committed_baselines_pin_the_exact_metrics(self):
        for bench, names in EXACT_METRICS.items():
            with open(os.path.join(BASELINES, f"BENCH_{bench}.json")) as f:
                metrics = json.load(f)["metrics"]
            exact = {name for name, m in metrics.items() if m.get("exact")}
            self.assertEqual(exact, names, bench)
            for name in names:
                self.assertTrue(metrics[name]["gated"], name)

    def test_bench_mismatch_is_an_error(self):
        baseline = self.path("baseline.json", report(bench="a"))
        current = self.path("current.json", report(bench="b"))
        result = self.run_tool(baseline, current)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("bench mismatch", result.stderr)

    def test_update_installs_baseline(self):
        baseline = self.path("nested/dir/baseline.json")
        current = self.path("current.json", report(value=2.0))
        result = self.run_tool(baseline, current, "--update")
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(baseline) as f:
            self.assertEqual(json.load(f)["metrics"]["metric"]["value"], 2.0)
        # And the freshly installed baseline gates cleanly.
        self.assertEqual(self.run_tool(baseline, current).returncode, 0)

    def test_update_refuses_malformed_json(self):
        baseline = self.path("baseline.json")
        current = self.path("current.json")
        with open(current, "w") as f:
            f.write("{not json")
        result = self.run_tool(baseline, current, "--update")
        self.assertNotEqual(result.returncode, 0)
        self.assertFalse(os.path.exists(baseline))


if __name__ == "__main__":
    unittest.main()
