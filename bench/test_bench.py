"""Tests of the benchmark harness itself, at the smoke size.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int = 0, seed: int = 5) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace), "--smoke"])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().splitlines()[-1])


class ResultLineTest(unittest.TestCase):
    def test_every_workload_is_correct_and_reports_the_declared_metrics(self):
        declared = {0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = smoke(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     declared[trace])

    def test_layer_counts_repeat_across_runs(self):
        first, second = smoke("sweep_cold", 1, seed=1), smoke("sweep_cold", 1, seed=2)
        for name in run.tracing.COUNT_METRICS:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)
        self.assertEqual(first["metrics"]["numtheory.build_spf.calls"]["value"], 14)
        self.assertEqual(first["metrics"]["store.load_run.misses"]["value"], 7)


class WrongExpectationTest(unittest.TestCase):
    def setUp(self):
        self.saved = copy.deepcopy(run.EXPECTED)

    def tearDown(self):
        run.EXPECTED.clear()
        run.EXPECTED.update(self.saved)

    def test_wrong_table_makes_sweeps_fail(self):
        run.EXPECTED["smoke"]["sweep"]["matches"]["3"] += 1
        for workload in ("sweep_cold", "sweep_warm"):
            result = smoke(workload)
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)

    def test_wrong_digest_makes_generate_fail(self):
        run.EXPECTED["smoke"]["generate_sha256"] = "0" * 64
        result = smoke("generate_deep")
        self.assertFalse(result["correct"])
        # Every timed invocation fails; the set-up and the reference runs, one
        # more than the invocations, do not.
        self.assertEqual(2 * result["failed"] + 1,
                         result["attempted"] - run.SETUP_REPEATS["generate_deep"])

    def test_wrong_reference_output_fails(self):
        run.EXPECTED["reference"] = "reference 0 " + "0" * 64
        result = smoke("sweep_warm")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class CheckGenerateTest(unittest.TestCase):
    def test_rejects_a_term_that_does_not_divide_q(self):
        rows = ["header", "1 0 0 1 *", "2 7 7 7", "3 14 21 3 *", "4 21 42 5"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.txt"
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            problems = checks.check_generate(path, 7, 4, "0" * 64)
        self.assertTrue(any("does not divide" in p for p in problems), problems)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "sweep_warm", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
