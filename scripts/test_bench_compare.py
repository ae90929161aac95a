#!/usr/bin/env python3
"""Unit tests for bench_compare.py on synthetic run files.

    python3 scripts/test_bench_compare.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_compare  # noqa: E402

METRICS = [
    {"name": "reads_per_host_s", "better": "higher", "bound": 0.25},
    {"name": "cpu_s", "better": "lower", "bound": 0.25},
    {"name": "sim_read_p99_us.Baseline", "better": "lower", "bound": 0.1},
]


def result_line(metrics, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "x"}
                    for k, v in metrics.items()}})


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="bench-compare-")
        self.parent = os.path.join(self.tmp, "parent")
        self.change = os.path.join(self.tmp, "change")
        os.makedirs(self.parent)
        os.makedirs(self.change)
        with open(os.path.join(self.tmp, "BENCHMARK.json"), "w") as f:
            json.dump({"end_to_end": METRICS}, f)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def write(self, side, workload, seed, metrics, correct=True):
        path = os.path.join(side, "%s-seed%d.out" % (workload, seed))
        with open(path, "w") as f:
            f.write("build and report text\n")
            f.write(result_line(metrics, correct) + "\n")

    def write_pairs(self, parent_rates, change_rates, workload="w",
                    cpu=(1.0, 1.0), p99=(100.0, 100.0)):
        for seed, (p, c) in enumerate(zip(parent_rates, change_rates), 1):
            self.write(self.parent, workload, seed,
                       {"reads_per_host_s": p, "cpu_s": cpu[0],
                        "sim_read_p99_us.Baseline": p99[0]})
            self.write(self.change, workload, seed,
                       {"reads_per_host_s": c, "cpu_s": cpu[1],
                        "sim_read_p99_us.Baseline": p99[1]})

    def verdicts(self):
        rows, errors = bench_compare.compare(
            bench_compare.load_runs(self.parent),
            bench_compare.load_runs(self.change), METRICS)
        return {(w, n): r["verdict"] for w, n, r in rows}, errors

    def main(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_compare.main(
                ["--parent", self.parent, "--change", self.change,
                 "--benchmark", os.path.join(self.tmp, "BENCHMARK.json")])

    def test_clear_gain_is_better_and_sim_metrics_identical(self):
        parent = [100 + i for i in range(10)]
        self.write_pairs(parent, [p * 1.4 for p in parent],
                         cpu=(1.0, 0.7))
        v, errors = self.verdicts()
        self.assertEqual(errors, [])
        self.assertEqual(v[("w", "reads_per_host_s")], "better")
        self.assertEqual(v[("w", "cpu_s")], "better")
        self.assertEqual(v[("w", "sim_read_p99_us.Baseline")], "identical")
        self.assertEqual(self.main(), 0)

    def test_eight_wins_of_ten_is_no_claim(self):
        parent = [100.0] * 10
        change = [120.0] * 8 + [99.0, 99.0]
        self.write_pairs(parent, change)
        v, _ = self.verdicts()
        self.assertEqual(v[("w", "reads_per_host_s")], "same")

    def test_gain_within_parent_iqr_is_no_claim(self):
        # Wins every pair, but the medians differ by less than the
        # parent's interquartile range.
        parent = [100.0, 100.0, 100.0, 110.0, 110.0, 110.0, 120.0, 120.0,
                  120.0, 120.0]
        change = [p + 1.0 for p in parent]
        self.write_pairs(parent, change)
        v, _ = self.verdicts()
        self.assertEqual(v[("w", "reads_per_host_s")], "same")

    def test_nine_pairs_are_too_few_to_claim(self):
        parent = [100.0] * 9
        self.write_pairs(parent, [150.0] * 9)
        v, _ = self.verdicts()
        self.assertEqual(v[("w", "reads_per_host_s")], "few-pairs")

    def test_worse_than_bound_fails_in_either_direction(self):
        # reads_per_host_s 30% lower, and cpu_s (lower is better) 30%
        # higher: both beyond the 0.25 bound.
        self.write_pairs([100.0] * 4, [70.0] * 4, cpu=(1.0, 1.3))
        v, _ = self.verdicts()
        self.assertEqual(v[("w", "reads_per_host_s")], "WORSE")
        self.assertEqual(v[("w", "cpu_s")], "WORSE")
        self.assertEqual(self.main(), 1)

    def test_sim_metric_moving_within_bound_is_not_identical(self):
        self.write_pairs([100.0] * 3, [100.0] * 3, p99=(100.0, 105.0))
        v, _ = self.verdicts()
        self.assertEqual(v[("w", "sim_read_p99_us.Baseline")], "few-pairs")
        self.write_pairs([100.0] * 3, [100.0] * 3, p99=(100.0, 111.0))
        v, _ = self.verdicts()
        self.assertEqual(v[("w", "sim_read_p99_us.Baseline")], "WORSE")

    def test_wide_spread_is_unresolved(self):
        parent = [60.0, 80.0, 100.0, 120.0, 140.0]
        self.write_pairs(parent, [p * 1.02 for p in parent[::-1]])
        v, _ = self.verdicts()
        self.assertEqual(v[("w", "reads_per_host_s")], "unresolved")

    def test_pairs_by_workload_and_seed(self):
        self.write_pairs([100.0] * 2, [100.0] * 2, workload="a")
        self.write_pairs([100.0] * 2, [100.0] * 2, workload="b")
        # An unpaired run and an incorrect run are reported as errors.
        self.write(self.parent, "a", 9, {"reads_per_host_s": 1.0})
        self.write(self.change, "b", 1, {"reads_per_host_s": 100.0},
                   correct=False)
        v, errors = self.verdicts()
        self.assertIn(("a", "reads_per_host_s"), v)
        self.assertIn(("b", "reads_per_host_s"), v)
        self.assertEqual(len(errors), 2)
        self.assertEqual(self.main(), 1)


if __name__ == "__main__":
    unittest.main()
