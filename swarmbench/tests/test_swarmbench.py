#!/usr/bin/env python3
"""The benchmark's own tests: its correctness gates trip, every named metric
is emitted with its unit, and the virtual figures are deterministic.

    python3 swarmbench/tests/test_swarmbench.py        # from the repository root

Runs use the smoke-test sizes (--tiny) and build through swarmbench/run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("ycsb_b_cached", "ycsb_a_miss", "chaos_churn")


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT, seconds=0.3):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def deterministic(stdout):
    for line in stdout.splitlines():
        if line.startswith("deterministic: "):
            return json.loads(line[len("deterministic: "):])
    raise AssertionError("no deterministic line in:\n" + stdout)


class SwarmBenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.end_to_end = {m["name"]: m["unit"] for m in cls.spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in cls.spec["per_layer"]}
        cls.runs = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = run(w, trace=trace)

    def test_benchmark_json_names_the_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            for trace, names in ((0, self.end_to_end), (1, self.per_layer)):
                code, out = self.runs[(w, trace)]
                self.assertEqual(code, 0, "%s trace=%d failed:\n%s" % (w, trace, out))
                res = result(out)
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(set(res["metrics"]), set(names), "%s trace=%d" % (w, trace))
                for name, unit in names.items():
                    self.assertEqual(res["metrics"][name]["unit"], unit, name)
                    self.assertIsInstance(res["metrics"][name]["value"], (int, float), name)

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            for name, m in result(self.runs[(w, 0)][1])["metrics"].items():
                self.assertGreater(m["value"], 0, "%s %s" % (w, name))

    def test_virtual_figures_repeat_for_a_seed_traced_or_not(self):
        # The longer run also does more host-timed work after the window,
        # which must not leak into any virtual figure or count.
        for w in WORKLOADS:
            untraced = deterministic(self.runs[(w, 0)][1])
            self.assertEqual(untraced, deterministic(run(w, seconds=2)[1]), w)
            self.assertEqual(untraced, deterministic(self.runs[(w, 1)][1]), w)

    def test_virtual_figures_change_with_the_seed(self):
        for w in WORKLOADS:
            self.assertNotEqual(deterministic(self.runs[(w, 0)][1]),
                                deterministic(run(w, seed=2)[1]), w)

    def test_a_corrupted_value_trips_the_gate(self):
        for w in ("ycsb_b_cached", "chaos_churn"):
            code, out = run(w, extra=["--inject", "corrupt-value"])
            self.assertEqual(code, 1, out)
            self.assertFalse(result(out)["correct"])
            self.assertIn("no write of that key produced", out)

    def test_a_non_linearizable_history_trips_the_gate(self):
        for w in ("ycsb_a_miss", "chaos_churn"):
            code, out = run(w, extra=["--inject", "stale-read"])
            self.assertEqual(code, 1, out)
            self.assertFalse(result(out)["correct"])
            self.assertIn("not linearizable", out)

    def test_chaos_churn_reports_its_fault_trace(self):
        out = self.runs[("chaos_churn", 0)][1]
        self.assertIn("chaos_trace_hash=", out)
        layers = deterministic(out)
        self.assertGreater(layers["chaos.faults"], 0)
        self.assertGreater(layers["repair.completed"], 0)

    def test_without_the_sources_it_fails_without_a_result(self):
        scratch = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH, os.path.join(scratch, "swarmbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "swarmbench/run.py", "--workload", "ycsb_b_cached", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, env=env, capture_output=True, text=True, timeout=120)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
