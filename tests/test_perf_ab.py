#!/usr/bin/env python3
"""Verdicts of scripts/perf_ab.py on synthetic run records (no build).

    python3 tests/test_perf_ab.py
"""

import importlib.util
import io
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(HERE, "..", "scripts", "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(perf_ab)

LOWER = {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}
TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
WIDE = [1.0, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1]


def verdict(ref, new, metric=LOWER):
    return perf_ab.compare(ref, new, metric)["verdict"]


def record(correct=True, **metrics):
    return {"correct": correct, "attempted": 10, "failed": 0 if correct
            else 1, "host": {"common.effective_cores": [3.5, 3.9]},
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


class PerfAbTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(perf_ab.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(perf_ab.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))
        self.assertEqual(perf_ab.quartiles([7.0]), (7.0, 7.0, 7.0))
        c = perf_ab.compare(TIGHT, [x * 0.5 for x in TIGHT], LOWER)
        self.assertEqual(c["ref"][1], 1.0)
        self.assertEqual(c["ratio"], 0.5)
        self.assertEqual(c["wins"], 10)

    def test_ten_of_ten_wins_is_better(self):
        self.assertEqual(verdict(TIGHT, [x * 0.9 for x in TIGHT]), "better")

    def test_better_needs_ten_pairs(self):
        self.assertEqual(verdict(TIGHT[:9], [x * 0.9 for x in TIGHT[:9]]),
                         "same")

    def test_nine_tenths_is_the_threshold(self):
        new = [x * 0.9 for x in TIGHT]
        new[0], new[1] = 2.0, 2.0  # the change loses two pairs
        self.assertEqual(verdict(TIGHT, new), "same")

    def test_gain_within_the_parent_spread_is_not_better(self):
        ref = [1.0, 1.2] * 5
        self.assertEqual(verdict(ref, [x * 0.95 for x in ref]), "same")

    def test_median_beyond_the_bound_is_worse(self):
        self.assertEqual(verdict(TIGHT, [x * 1.3 for x in TIGHT]), "worse")
        self.assertEqual(verdict(TIGHT, [x * 1.2 for x in TIGHT]), "same")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        self.assertEqual(verdict(WIDE, list(reversed(WIDE))), "unresolved")

    def test_every_change_run_better_resolves_a_wide_spread(self):
        ref = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 2.0]
        new = [0.9, 0.95, 0.99, 0.9, 0.95, 0.99, 0.9, 0.95, 0.99, 0.9]
        self.assertEqual(verdict(ref, new), "same")
        new[0] = 1.0  # one change run ties the best parent run
        self.assertEqual(verdict(ref, new), "unresolved")

    def test_higher_is_better_metric(self):
        self.assertEqual(verdict(TIGHT, [x * 1.1 for x in TIGHT], HIGHER),
                         "better")
        self.assertEqual(verdict(TIGHT, [x * 0.7 for x in TIGHT], HIGHER),
                         "worse")
        self.assertEqual(verdict(TIGHT, [x * 1.3 for x in TIGHT], LOWER),
                         "worse")

    def test_incorrect_run_on_either_side_fails_the_exit(self):
        good = [(record(cpu_s=1.0), record(cpu_s=1.0))] * 3
        out = io.StringIO()
        self.assertEqual(perf_ab.report({"w": good}, [LOWER], out), 0)
        self.assertIn("failed 0/30, effective cores 3.5-3.9", out.getvalue())
        for bad in ((record(False, cpu_s=1.0), record(cpu_s=1.0)),
                    (record(cpu_s=1.0), record(False, cpu_s=1.0))):
            out = io.StringIO()
            self.assertEqual(
                perf_ab.report({"w": good + [bad]}, [LOWER], out), 1)
            self.assertIn("failed 1/40", out.getvalue())


if __name__ == "__main__":
    unittest.main()
