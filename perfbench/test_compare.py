#!/usr/bin/env python3
"""Tests for compare.py's verdict rule and metric-name validation.

    python3 perfbench/test_compare.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


class VerdictTest(unittest.TestCase):
    def test_identical_runs_are_unchanged(self):
        self.assertEqual(compare.verdict(PARENT, list(PARENT), "lower", 0.1), "unchanged")

    def test_clear_gain_with_ten_pairs_is_improved(self):
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1), "improved")

    def test_gain_needs_ten_pairs(self):
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT[:9], change[:9], "lower", 0.1), "unchanged")

    def test_gain_needs_nine_tenths_of_pairs(self):
        change = [v * 0.8 for v in PARENT]
        change[0] = change[1] = 2.0  # two lost pairs: 8 of 10 won
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1), "unchanged")

    def test_gain_within_parent_spread_is_not_improved(self):
        change = [v - 0.005 for v in PARENT]  # every pair won, median moved < q3 - q1
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1), "unchanged")

    def test_loss_beyond_bound_is_worse(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1), "worse")

    def test_loss_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1), "unchanged")

    def test_direction_higher(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "higher", 0.1), "improved")
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "higher", 0.1), "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_spread_wider_than_bound_but_every_run_better_is_unchanged(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
        change = [0.5, 0.55, 0.52, 0.58, 0.51, 0.53, 0.54, 0.56, 0.57, 0.59][:9]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1), "unchanged")

    def test_per_layer_without_bound(self):
        self.assertEqual(compare.verdict(PARENT, list(PARENT), "lower"), "unchanged")
        self.assertEqual(compare.verdict(PARENT, [v * 1.5 for v in PARENT], "lower"), "worse")
        self.assertEqual(compare.verdict(PARENT[:3], [v * 1.5 for v in PARENT[:3]], "lower"),
                         "unresolved")

    def test_pairs_by_seed(self):
        parent = [(1, 1.0), (2, 2.0), (3, 3.0)]
        change = [(3, 2.9), (1, 0.9), (2, 1.9)]
        self.assertEqual(compare.paired(parent, change), [(3.0, 2.9), (1.0, 0.9), (2.0, 1.9)])

    def test_bad_direction_raises(self):
        with self.assertRaises(ValueError):
            compare.verdict(PARENT, PARENT, "smaller", 0.1)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ["step_s", "step_s.tail", "kernel.pp.simd-float.gflops", "9lives",
                     "a" * 64]:
            self.assertEqual(compare.check_name(name), name)

    def test_invalid_names(self):
        for name in ["", ".step", "-x", "step s", "step/s", "a{b=1}", "é", "a" * 65, None, 3]:
            with self.assertRaises(ValueError, msg=repr(name)):
                compare.check_name(name)

    def test_records_with_bad_metric_names_are_refused(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "r.json")
            with open(path, "w") as f:
                json.dump({"workload": "inproc-64k", "seed": 1,
                           "metrics": {"bad name": {"value": 1.0, "unit": "s"}}}, f)
            with self.assertRaises(ValueError):
                compare.load_records([d])

    def test_benchmark_json_names_are_valid(self):
        here = os.path.dirname(os.path.abspath(__file__))
        spec = os.path.join(here, "..", "BENCHMARK.json")
        if os.path.exists(spec):
            self.assertTrue(compare.load_spec(spec))


if __name__ == "__main__":
    unittest.main()
