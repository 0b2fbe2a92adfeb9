#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark (as run.py does) on first use. Covers the percentile
rule, the quartile spread the steadiness tool applies, the result-line
contract, and that every correctness check of every workload rejects a
perturbed reference.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402
import steady  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PercentileRule(unittest.TestCase):
    def test_selftest(self):
        binary = os.path.join(bench.build(), "perfbench")
        done = subprocess.run([binary, "selftest"], capture_output=True,
                              text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(json.loads(done.stdout), {"selftest": True})


class Quartiles(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, med, q3, share = steady.spread(values)
        expected = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (expected[0], expected[2]))
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(share, (expected[2] - expected[0]) / med)

    def test_judge(self):
        metric = {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
                  "bound": 0.1}
        same = [100.0 + i for i in range(10)]
        self.assertTrue(steady.judge(metric, same, same)["ok"])
        slower = [v * 1.2 for v in same]
        self.assertFalse(steady.judge(metric, same, slower)["ok"])
        # A shift past the bound fails either way.
        faster = [v * 0.8 for v in same]
        self.assertFalse(steady.judge(metric, same, faster)["ok"])
        self.assertTrue(steady.judge(metric, same,
                                     [v * 0.95 for v in same])["ok"])
        wide = [50.0, 150.0] * 5
        self.assertFalse(steady.judge(metric, wide, wide)["ok"])

    def test_setup_is_judged_on_its_median_only(self):
        metric = {"name": "setup_s", "unit": "s", "better": "lower",
                  "bound": 0.25}
        wide = [0.5, 1.5] * 5
        self.assertTrue(steady.judge(metric, wide, wide)["ok"])
        self.assertFalse(steady.judge(metric, wide,
                                      [v * 0.7 for v in wide])["ok"])


class Workloads(unittest.TestCase):
    """One short run per workload with every check also run perturbed."""

    def check_workload(self, name):
        code, stdout = bench.run(name, seed=7, seconds=1, trace=False,
                                 selfcheck=True)
        self.assertEqual(code, 0, stdout)
        lines = stdout.strip().splitlines()
        selfcheck = json.loads(lines[-2])["selfcheck"]
        self.assertTrue(selfcheck)
        for check, caught in selfcheck.items():
            self.assertTrue(caught, f"{name}: {check} accepts a perturbed "
                                    "reference")
        result = result_of(stdout)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"])
            self.assertGreater(got["value"], 0, metric["name"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC["end_to_end"]})

    def test_interval_sweep_6v(self):
        self.check_workload("interval_sweep_6v")

    def test_mttc_sweep_n40(self):
        self.check_workload("mttc_sweep_n40")

    def test_nvpd_mixed(self):
        self.check_workload("nvpd_mixed")

    def test_monitor_drift(self):
        self.check_workload("monitor_drift")

    def traced(self, name):
        code, stdout = bench.run(name, seed=7, seconds=1, trace=True)
        self.assertEqual(code, 0, stdout)
        result = result_of(stdout)
        self.assertGreater(result["metrics"]["obs.trace_overhead"]["value"],
                           0)
        return result["metrics"]

    def check_layers(self, metrics):
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        for metric in SPEC["per_layer"]:
            self.assertEqual(metrics[metric["name"]]["unit"], metric["unit"])

    def test_traced_monitor_reports_every_layer(self):
        metrics = self.traced("monitor_drift")
        self.check_layers(metrics)
        self.assertGreater(metrics["monitor.resolves"]["value"], 0)

    def test_traced_nvpd_reports_service_and_store(self):
        metrics = self.traced("nvpd_mixed")
        self.check_layers(metrics)
        for name in ("store.put_ms_p50", "store.get_ms_p50",
                     "store.bytes_written", "store.entries_read",
                     "service.rtt_ms_p50", "service.executed",
                     "service.coalesced", "loadgen.latency_p99_ms"):
            self.assertGreater(metrics[name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
