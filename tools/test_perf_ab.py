#!/usr/bin/env python3
"""Tests of the statistics of tools/perf_ab.py on synthetic run lines.

    python3 tools/test_perf_ab.py

No benchmark runs: each test builds result objects shaped like
perfbench/run.py's last line and checks what perf_ab makes of them.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
    METRICS = json.load(f)["end_to_end"]

PAIRS = 10


def run_line(scale, correct=True):
    """A result object whose every metric is 100 * scale[i] (by name)."""
    return {"correct": correct, "attempted": 100,
            "failed": 0 if correct else 1,
            "metrics": {m["name"]: {"value": 100.0 * scale(m),
                                    "unit": m["unit"]} for m in METRICS}}


def drifting(i):
    """A host that drifts from pair to pair, as the real one does."""
    return 1.0 + 0.07 * ((i * 7) % 5 - 2)


class PerfAbStats(unittest.TestCase):
    def test_identical_sides_give_no_wins_and_cover_one(self):
        runs = [(run_line(lambda m, i=i: drifting(i)),
                 run_line(lambda m, i=i: drifting(i)))
                for i in range(PAIRS)]
        for row in perf_ab.summarize(METRICS, runs):
            self.assertEqual(row["wins"], 0, row["metric"])
            self.assertLessEqual(row["ci95"][0], 1.0, row["metric"])
            self.assertGreaterEqual(row["ci95"][1], 1.0, row["metric"])
            self.assertEqual(row["median_ratio"], 1.0, row["metric"])

    def test_better_in_every_pair_wins_every_pair(self):
        def better(m, i):
            gain = 0.8 if m["better"] == "lower" else 1.25
            return drifting(i) * gain
        runs = [(run_line(lambda m, i=i: drifting(i)),
                 run_line(lambda m, i=i: better(m, i)))
                for i in range(PAIRS)]
        for row in perf_ab.summarize(METRICS, runs):
            self.assertEqual(row["wins"], PAIRS, row["metric"])
            inside = row["ci95"][0] <= 1.0 <= row["ci95"][1]
            self.assertFalse(inside, row["metric"])

    def test_ties_count_for_neither_side(self):
        runs = [(run_line(lambda m: 1.0), run_line(lambda m: 1.0)),
                (run_line(lambda m: 1.0), run_line(lambda m: 0.5)),
                (run_line(lambda m: 1.0), run_line(lambda m: 2.0))]
        for row in perf_ab.summarize(METRICS, runs):
            self.assertEqual(row["wins"], 1, row["metric"])

    def test_quartiles_and_spread_of_the_base(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertEqual(perf_ab.quartiles(values), (2.0, 3.0, 4.0))
        row = perf_ab.compare(METRICS[0], values, values)
        self.assertAlmostEqual(row["base_spread"], 2.0 / 3.0)
        self.assertFalse(row["resolved"])

    def test_a_change_far_above_the_base_can_outgrow_the_bound(self):
        # The same relative spread on a median 15 times the base's is an
        # interquartile range 15 times as wide, past a bound taken on
        # the base's median.
        base = [90.0, 95.0, 100.0, 105.0, 110.0]
        row = perf_ab.compare(METRICS[0], base, [15.0 * v for v in base])
        self.assertTrue(row["resolved"])
        self.assertFalse(row["change_steady"])
        self.assertTrue(perf_ab.compare(METRICS[0], base, base)
                        ["change_steady"])

    def test_an_incorrect_run_fails(self):
        runs = [(run_line(lambda m: 1.0), run_line(lambda m: 1.0))
                for _ in range(PAIRS)]
        runs[3] = (runs[3][0], run_line(lambda m: 1.0, correct=False))
        with self.assertRaises(RuntimeError):
            perf_ab.summarize(METRICS, runs)


if __name__ == "__main__":
    unittest.main()
