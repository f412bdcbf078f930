"""Smoke test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

It is kept out of the repository's tier-1 suite, which collects ``tests/``
only.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("corpus", "counters", "search")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class HarnessSmoke(unittest.TestCase):
    def test_metric_lists_match_the_spec(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))

    def test_timed_run_of_each_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, probes, metrics, detail, units = run.timed_run(name, 7, 0, tiny=True)
                self.assertEqual(result.wrong, 0)
                self.assertEqual(result.failed, 0)
                self.assertEqual(set(metrics), set(units))
                self.assertTrue(all(metrics[k] > 0 for k in units))
                self.assertEqual(len(probes), len(result.workload.probes))

    def test_traced_run_of_each_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, _, metrics, detail, units = run.traced_run(name, 7, 0, tiny=True)
                self.assertEqual(result.wrong, 0)
                self.assertEqual(set(metrics), set(units))
                self.assertGreater(detail["spans"], 0)

    def test_same_seed_same_digest(self):
        first = run.timed_run("search", 3, 0, tiny=True)[0].reference_digest
        second = run.timed_run("search", 3, 0, tiny=True)[0].reference_digest
        self.assertEqual(first, second)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            skip = shutil.ignore_patterns("out", "__pycache__")
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=skip)
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "search",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
