"""Self-tests of the served-hub benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

They run every workload at a tiny size (``run.py --tiny``: 40-file
fixtures, one-second runs), so the whole file takes about a minute.
Covered: each workload emits exactly the metric names ``BENCHMARK.json``
declares, in both modes; an acknowledgement lost with a dropped journal
fails the correctness check; the same seed generates the same inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
import spec  # noqa: E402
from drivers import ExtensionDriver  # noqa: E402
from repro.vcs.workingcopy import load_repository  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int = 0, *extra: str) -> tuple[int, str, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    last = completed.stdout.strip().splitlines()[-1]
    return completed.returncode, completed.stdout, json.loads(last)


class MetricNames(unittest.TestCase):
    def test_spec_matches_benchmark_json(self):
        declared = [name for name, params in spec.WORKLOADS.items() if params.get("declared", True)]
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], declared)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]],
                         [tuple(m) for m in spec.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
                         [m[:3] for m in spec.PER_LAYER])

    def test_every_workload_emits_exactly_the_declared_metrics(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for workload in spec.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, stdout, result = run_tiny(workload, trace)
                    self.assertEqual(code, 0, stdout)
                    self.assertTrue(result["correct"], stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
                    self.assertGreaterEqual(result["attempted"], 1)


class LostAcknowledgement(unittest.TestCase):
    def test_dropped_journal_fails_the_check(self):
        code, stdout, result = run_tiny("extension", 0, "--inject", "drop-journal")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("lost_acknowledged", stdout)


class Determinism(unittest.TestCase):
    def test_same_seed_same_fixture(self):
        spec.WORKLOADS["sync_small"]["files"] = 40
        tips = []
        fixtures.CACHE.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=fixtures.CACHE) as scratch:
                meta = fixtures.build("sync_small", Path(scratch))
                repo = load_repository(Path(scratch) / fixtures.WORKING_COPY)
                tips.append((repo.refs.branch_target("main"), meta["files"]))
                repo.store.close()
        self.assertEqual(tips[0], tips[1])

    def test_same_seed_same_schedule(self):
        meta = fixtures.ensure(["extension"])["extension"]

        def schedule(seed):
            driver = ExtensionDriver(meta, "http://127.0.0.1:1", "token", seed, 2.0, HERE)
            driver.prepare()
            return [(due, kind, repr(target)) for due, kind, _, target in driver.ops]

        self.assertEqual(schedule(5), schedule(5))
        self.assertNotEqual(schedule(5), schedule(6))


if __name__ == "__main__":
    unittest.main()
