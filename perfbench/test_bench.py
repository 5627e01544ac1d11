#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_bench.py        (from the checkout root)

Each test runs perfbench/run.py for a second or two, so the first test
also builds trb_bench.  They check that the printed metric names and
units match BENCHMARK.json, that the span log is well nested, that a
single flipped stats bit fails the run, and that a tree without the
sources fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(workload, trace, seconds=1, seed=1, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def check(self, workload, trace, section):
        code, result = bench(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in manifest()[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_names_and_units(self):
        for workload in ("fig1-cold", "serve-mixed"):
            with self.subTest(workload=workload):
                self.check(workload, 0, "end_to_end")

    def test_per_layer_names_and_units(self):
        self.check("ipc1-ipref", 1, "per_layer")

    def test_manifest_lists_every_workload(self):
        names = {w["name"] for w in manifest()["workloads"]}
        self.assertEqual(names, {"fig1-cold", "ipc1-ipref", "serve-mixed"})


class Spans(unittest.TestCase):
    def test_self_times_and_nesting(self):
        for workload in ("fig1-cold", "serve-mixed"):
            with self.subTest(workload=workload):
                code, _ = bench(workload, 1, seconds=2, seed=5)
                self.assertEqual(code, 0)
                path = os.path.join(ROOT, ".bench_out",
                                    f"spans-{workload}-5.json")
                with open(path) as f:
                    spans = json.load(f)["spans"]
                self.assertTrue(spans)
                by_thread = {}
                for s in spans:
                    by_thread.setdefault(s["thread"], []).append(s)
                for log in by_thread.values():
                    children = [0] * len(log)
                    for s in log:
                        self.assertGreaterEqual(s["end_ns"], s["start_ns"])
                        if s["parent"] >= 0:
                            p = log[s["parent"]]
                            self.assertGreaterEqual(s["start_ns"],
                                                    p["start_ns"])
                            self.assertLessEqual(s["end_ns"], p["end_ns"])
                            children[s["parent"]] += (s["end_ns"] -
                                                      s["start_ns"])
                    for s, c in zip(log, children):
                        self.assertGreaterEqual(
                            s["end_ns"] - s["start_ns"] - c, 0, s["name"])


class Correctness(unittest.TestCase):
    def test_flipped_stats_bit_fails_the_run(self):
        for workload, trace in (("fig1-cold", 0), ("ipc1-ipref", 1),
                                ("serve-mixed", 0)):
            with self.subTest(workload=workload, trace=trace):
                code, result = bench(workload, trace, extra=["--flip-bit"])
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refused_connections_fail_the_run(self):
        code, result = bench("serve-mixed", 0, extra=["--refuse-connect"])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        # One failure per client that never got a reply.
        self.assertGreaterEqual(result["failed"], 2)

    def test_unflipped_run_is_correct(self):
        code, result = bench("ipc1-ipref", 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_tree_without_sources_fails_without_a_result(self):
        tree = os.path.join(ROOT, ".bench_tmp", "bare-tree")
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result = bench("fig1-cold", 0, cwd=tree)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
