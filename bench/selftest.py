"""Self-test of the benchmark (stdlib unittest; pytest does not collect it).

    python3 bench/selftest.py

Run from the root of the source tree.  It runs every workload at tiny
size, traced and untraced, and checks that every metric of BENCHMARK.json
is reported; it injects wrong outputs and checks that they lower
pass_ratio; and it checks that the benchmark refuses to run without a
source tree.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness as H  # noqa: E402
import worker  # noqa: E402
from segcalc import LineRegistry, Multisegment  # noqa: E402
from workloads import cli, order, sweep  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


class Smoke(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench(
                        "--workload", w["name"], "--seed", "1", "--seconds", "0.2",
                        "--trace", str(trace), "--tiny",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_cli_defects_set_pass_ratio(self):
        proc = bench("--workload", "cli", "--seed", "2", "--seconds", "0.2", "--trace", "0", "--tiny")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
        share = len(cli.DEFECTS) / info["cases_per_pass"]
        self.assertAlmostEqual(result["metrics"]["pass_ratio"]["value"], 1 - share)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(info["failed_by_kind"], {"defect": result["attempted"] * share})

    def test_refuses_without_a_source_tree(self):
        scratch = os.path.join(ROOT, ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class InjectedFaults(unittest.TestCase):
    """A wrong output, seen by the check, must lower pass_ratio."""

    def pass_ratio(self, mod, registry) -> float:
        cases = mod.generate(random.Random(1), True)
        ph = H.run_phase(
            cases, lambda t, c: mod.run(t, registry, c), mod.check, H.canon,
            H.NullTracer(), 0.0, 1, 60.0,
        )
        return worker.end_to_end(ph, 1)["pass_ratio"]

    def test_clean_run_passes(self):
        reg = LineRegistry.from_json(H.LINES)
        self.assertEqual(self.pass_ratio(sweep, reg), 1.0)
        self.assertEqual(self.pass_ratio(order, reg), 1.0)

    def test_wrong_dual(self):
        reg = LineRegistry.from_json(H.LINES)
        real = sweep.dual_irr
        sweep.dual_irr = lambda m: Multisegment.empty()
        try:
            self.assertLess(self.pass_ratio(sweep, reg), 1.0)
        finally:
            sweep.dual_irr = real

    def test_wrong_order(self):
        reg = LineRegistry.from_json(H.LINES)
        real = order.is_lower
        order.is_lower = lambda a, b: True
        try:
            self.assertLess(self.pass_ratio(order, reg), 1.0)
        finally:
            order.is_lower = real


if __name__ == "__main__":
    unittest.main()
