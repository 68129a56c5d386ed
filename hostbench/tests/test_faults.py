#!/usr/bin/env python3
"""The benchmark's own tests: every output check fails under its fault.

Each test runs `hostbench/run.py` on one workload with a fault injected and
expects a non-zero exit naming the failed check; the clean runs show the
same checks passing. Run from anywhere (about five minutes, mostly the two
train runs):

    python3 hostbench/tests/test_faults.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def bench(workload, inject=None, seconds=2):
    command = [sys.executable, os.path.join("hostbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds",
               str(seconds), "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class CleanRuns(unittest.TestCase):
    def check_clean(self, workload):
        done = bench(workload)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_online(self):
        self.check_clean("online")

    def test_scan(self):
        self.check_clean("scan")


class InjectedFaults(unittest.TestCase):
    def expect_failure(self, workload, fault, *messages):
        done = bench(workload, fault)
        self.assertNotEqual(done.returncode, 0, done.stdout)
        self.assertNotIn('"correct": true', done.stdout)
        for message in messages:
            self.assertIn(message, done.stderr)

    def test_online_flipped_output_bit(self):
        self.expect_failure("online", "flip-bit",
                            "executor output != SppNet::forward",
                            "executor output != QuantizedSppNet::forward",
                            "dispatched kernels != generic kernels")

    def test_online_perturbed_weight(self):
        self.expect_failure("online", "perturb-weight",
                            "executor output != SppNet::forward",
                            "executor output != QuantizedSppNet::forward")

    def test_scan_shifted_threshold(self):
        self.expect_failure("scan", "shift-threshold", "quantile target")

    def test_scan_flipped_output_bit(self):
        self.expect_failure("scan", "flip-bit",
                            "scan_to_csv differs from pass 0")

    def test_train_perturbed_weight(self):
        self.expect_failure("train", "perturb-weight", "below the floor")

    def test_train_perturbed_int8_weight(self):
        self.expect_failure("train", "perturb-int8-weight",
                            "points below fp32")


if __name__ == "__main__":
    unittest.main(verbosity=2)
