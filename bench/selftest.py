"""The benchmark's own tests.

    python3 bench/selftest.py

Runs the runner in subprocesses on smoke-size corpora, so it takes a
minute or so.  Scratch copies of the checkout go under ``.bench_out/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

import run as runner

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 424242  # not one of the seeds the pools were tuned on
SMOKE_OPS = 4


def run(root: Path, workload: str, trace: int, ops: int = SMOKE_OPS):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--ops", str(ops)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def result_of(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def scratch_copy(with_program: bool) -> Path:
    """BENCHMARK.json and bench/ (and src/ if asked) in a fresh directory."""
    base = ROOT / ".bench_out"
    base.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for name in SPEC["paths"]:
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


class BenchmarkSelfTest(unittest.TestCase):

    def test_every_metric_in_benchmark_json_is_printed(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in [w["name"] for w in SPEC["workloads"]]:
                with self.subTest(workload=workload, trace=trace):
                    done = run(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    got = result_of(done)
                    self.assertEqual(
                        {k: v["unit"] for k, v in got["metrics"].items()},
                        want)
                    self.assertTrue(got["correct"], done.stderr)
                    self.assertEqual(got["failed"], 0)
                    self.assertGreaterEqual(got["attempted"], SMOKE_OPS)
                    value = {k: v["value"] for k, v in got["metrics"].items()}
                    if trace and workload == "search":  # outside = inside
                        self.assertEqual(value["simplex.calls"],
                                         value["stability.lp_calls"])
                    if trace and workload == "algebra":
                        self.assertEqual(value["simplex.calls"], 0)
                    table = "\n".join(done.stdout.splitlines()[:-1])
                    for name in want:  # also in the human-readable lines
                        self.assertIn(f" {name} ", table)

    def test_ops_beyond_the_p90_are_timed_ten_times(self):
        for n_ops in (13, 35):  # the search and the torus/algebra corpora
            _, beyond = runner.nearest_rank(range(n_ops), 0.9)
            self.assertGreaterEqual(beyond * runner.passes_needed(n_ops),
                                    runner.TAIL_TIMINGS)

    def test_scaled_latency_of_twice_the_reference_is_twice_its_unit(self):
        def twice():
            runner.time_reference()
            runner.time_reference()

        relative, _, _ = runner.closed_loop(
            [types.SimpleNamespace(call=twice)], 0, 9, lambda: None)
        ratio = runner.per_op(relative)[0]
        self.assertGreater(ratio, 1.5)
        self.assertLess(ratio, 2.5)

    def test_corrupted_expected_answer_is_a_failure(self):
        root = scratch_copy(with_program=True)
        try:
            pool_file = root / "bench" / "corpus" / "torus.json"
            pool = json.loads(pool_file.read_text(encoding="utf-8"))
            for variant in pool["slots"][0]["variants"]:
                expected = variant["expected"]
                expected["verdict"] = ("stable_torus"
                                       if expected["verdict"] != "stable_torus"
                                       else "unstable_witness")
            pool_file.write_text(json.dumps(pool), encoding="utf-8")
            done = run(root, "torus", 0, ops=1)
            self.assertEqual(done.returncode, 0, done.stderr)
            got = result_of(done)
            self.assertFalse(got["correct"])
            self.assertGreater(got["failed"] / got["attempted"], 0)
            self.assertIn("failed_frac", done.stdout)
        finally:
            shutil.rmtree(root)

    def test_without_the_program_it_fails_without_a_result(self):
        root = scratch_copy(with_program=False)
        try:
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "torus",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(root)


if __name__ == "__main__":
    unittest.main()
