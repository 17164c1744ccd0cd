"""Smoke test of the benchmark itself, at tiny input sizes:

    python3 benchmarks/smoke.py

Runs every workload untraced and traced, checks that each metric named in
BENCHMARK.json prints with its unit, that per-layer self times fit inside the
traced wall time, that each workload leaves alone the layers its README entry
says it does not use, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]

sys.path.insert(0, str(HERE))
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd=ROOT):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    return proc


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                     1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        cls.runs = {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}

    def result(self, workload, trace):
        proc = self.runs[(workload, trace)]
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        return proc.stdout, res

    def test_every_metric_prints_with_its_unit(self):
        for (workload, trace) in self.runs:
            with self.subTest(workload=workload, trace=trace):
                stdout, res = self.result(workload, trace)
                units = self.units[trace]
                self.assertEqual(list(res["metrics"]), list(units))
                for name, unit in units.items():
                    m = res["metrics"][name]
                    self.assertEqual(m["unit"], unit)
                    self.assertIsInstance(m["value"], (int, float))
                    self.assertTrue(math.isfinite(m["value"]))
                    self.assertIn(f"metric {name} ", stdout)
                if trace == 0:
                    self.assertIn("metric error_rate 0.0 ratio", stdout)
                    self.assertIn("metric latency_p99_us ", stdout)

    def test_self_times_fit_in_traced_wall_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, res = self.result(workload, 1)
                m = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertEqual(m["trace.missing"], 0)
                layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
                fn_sum = sum(v for k, v in m.items()
                             if k.endswith(".self_s") and k.count(".") == 2)
                self.assertAlmostEqual(layer_sum, fn_sum, delta=1e-6)
                self.assertGreater(layer_sum, 0.0)
                self.assertLessEqual(layer_sum, m["trace.wall_s"])
                self.assertLessEqual(m["trace.coverage"], 1.0)
                self.assertGreater(m["trace.overhead"], 0.0)

    def test_workloads_leave_unused_layers_alone(self):
        for workload in WORKLOADS:
            _, res = self.result(workload, 1)
            for name, m in res["metrics"].items():
                if name.endswith(".calls") and name.startswith(WORKLOADS[workload].UNUSED):
                    with self.subTest(workload=workload, metric=name):
                        self.assertEqual(m["value"], 0)

    def test_refuses_to_run_without_program_sources(self):
        bare = HERE / "_work" / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                                   "single", "--seed", "3", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
