#!/usr/bin/env python3
"""Checks that the benchmark counts failures instead of hiding them.

    python3 perfbench/selftest.py

Runs one short repetition of hostile_tournament (5 campaign units) three
ways: clean, with a campaign::FaultPlan forcing one unit to fail
(`cell:<k>@<n>`), and against expected outputs with one value altered. The
first must pass; the other two must report correct=false with exactly one
failed operation and a lower ok_frac.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOAD = "hostile_tournament"
UNITS = 5  # baseline + the 2x2 tournament


def bench(*extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD, "--seed", "0",
         "--seconds", "1", "--trace", "0"] + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


class CountsFailures(unittest.TestCase):
    def test_clean_run_passes(self):
        result, _ = bench()
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], UNITS)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_injected_unit_fault_counts(self):
        # Cell 1 throws on every attempt; the campaign completes the rest.
        result, log = bench("--fault", "cell:1@9")
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], UNITS)
        self.assertEqual(result["failed"], 1)
        self.assertAlmostEqual(result["metrics"]["ok_frac"]["value"], 1 - 1 / UNITS)
        self.assertIn("injected cell fault", log)

    def test_output_mismatch_counts(self):
        expected_dir = os.path.join(SCRATCH, "expected")
        shutil.rmtree(SCRATCH, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "expected"), expected_dir)
        path = os.path.join(expected_dir, WORKLOAD + ".json")
        with open(path) as f:
            expected = json.load(f)
        baseline = expected["variants"]["2"][WORKLOAD + "/baseline"]  # seed 0 -> offset 2
        baseline["successful_polls"] += 1
        with open(path, "w") as f:
            json.dump(expected, f)
        try:
            result, log = bench("--expected", expected_dir)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("output mismatch: successful_polls", log)


if __name__ == "__main__":
    unittest.main()
