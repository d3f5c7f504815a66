"""Smoke test of the benchmark: every workload at tiny size, in seconds.

Run from the root of a source checkout:

    python3 -m unittest bench/test_smoke.py

It checks that each workload answers correctly and reports every metric
BENCHMARK.json names, that two traced runs under different hash seeds give
exactly the same deterministic counts, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import DETERMINISTIC, metric_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run(workload: str, trace: int, hash_seed: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(command, capture_output=True, text=True, timeout=170, env=env, cwd=root)


def result_lines(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """The run's metadata line and its result line."""
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_workload_is_correct_and_reports_every_metric(self):
        wanted = {m["name"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload, 0, 0)
                self.assertEqual(done.returncode, 0, done.stderr)
                _, result = result_lines(done)
                self.assertTrue(result["correct"], done.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), wanted)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(metric["unit"], UNITS[name], name)

    def test_traced_counts_repeat_exactly(self):
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], metric_names())
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = run(workload, 1, 1), run(workload, 1, 2)
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(second.returncode, 0, second.stderr)
                (info_a, a), (info_b, b) = result_lines(first), result_lines(second)
                self.assertTrue(a["correct"] and b["correct"], first.stderr + second.stderr)
                self.assertEqual(set(a["metrics"]), set(metric_names()))
                for name, metric in a["metrics"].items():
                    self.assertEqual(metric["unit"], UNITS[name], name)
                for name in DETERMINISTIC:
                    self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)
                self.assertEqual(info_a["traced_pass_verdicts"], info_b["traced_pass_verdicts"])
                self.assertLessEqual(info_a["self_s_total"], info_a["traced_wall_s"])

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_work" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = run(WORKLOADS[0], 0, 0, root=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
