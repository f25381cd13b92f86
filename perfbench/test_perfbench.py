#!/usr/bin/env python3
"""Tests for the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the runner and its C++ unit tests (trace folding, percentile rule),
runs those, then runs every workload briefly with and without tracing and
checks the result line against BENCHMARK.json. Takes about a minute after
the build.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds="0.5", cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(["perfbench_runner", "perfbench_unit_test"])

    def test_unit_tests(self):
        out = subprocess.run([str(run.BUILD_DIR / "perfbench_unit_test")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_emitted_name_matches_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stdout + out.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)

    def test_readme_maps_every_per_layer_metric(self):
        readme = (run.BENCH_DIR / "README.md").read_text()
        for metric in SPEC["per_layer"]:
            self.assertIn(f"`{metric['name']}`", readme)

    def test_fails_without_sources(self):
        isolated = run.ROOT / ".bench_build" / "isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, isolated / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", isolated)
        try:
            out = run_bench("long-context", 0, cwd=isolated)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
