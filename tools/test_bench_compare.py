#!/usr/bin/env python3
"""Unit tests for bench_compare.py, run from ctest as `test_bench_compare`.

Covers the gate semantics the CI bench jobs rely on:
  * a numeric metric present in the baseline but missing from the current
    run fails, and the FAIL line names the missing key;
  * a NON-numeric key (config echo) missing from the current run fails
    too — a bench that silently stops reporting a field must not pass;
  * bubble_fraction is lower-better with 0.02 absolute tolerance;
  * throughput_ratio is higher-better with relative tolerance;
  * improvements and in-tolerance noise pass;
  * the committed BENCH_fusion.json baseline fails against a run with
    fusion off, naming the launch keys (a mutation check of the gate).
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare  # noqa: E402

BASELINES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "baselines")


def run_compare(baseline, current, extra_args=()):
    """Run bench_compare.main on two dicts; return (exit_code, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        cur_path = os.path.join(tmp, "current.json")
        with open(base_path, "w") as f:
            json.dump(baseline, f)
        with open(cur_path, "w") as f:
            json.dump(current, f)
        out = io.StringIO()
        with redirect_stdout(out):
            code = bench_compare.main(
                [base_path, cur_path, *extra_args])
        return code, out.getvalue()


BASELINE = {
    "model": "sppnet_c2",
    "devices": 192,
    "pipeline": {
        "throughput_rps": 587730.0,
        "p99_ms": 1.166,
        "slo_attainment": 0.8809,
        "bubble_fraction": 0.376,
    },
    "throughput_ratio": 2.343,
}


class MissingKeys(unittest.TestCase):
    def test_missing_numeric_metric_fails_with_key_name(self):
        current = json.loads(json.dumps(BASELINE))
        del current["pipeline"]["p99_ms"]
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 1)
        self.assertIn("**FAIL**", report)
        self.assertIn("missing from current run: pipeline.p99_ms", report)

    def test_missing_non_numeric_key_fails_with_key_name(self):
        current = json.loads(json.dumps(BASELINE))
        del current["model"]
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 1)
        self.assertIn("missing from current run: model", report)

    def test_extra_key_in_current_is_not_a_failure(self):
        current = json.loads(json.dumps(BASELINE))
        current["pipeline"]["new_metric"] = 1.0
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 0)
        self.assertIn("**PASS**", report)


class Classifiers(unittest.TestCase):
    def test_bubble_fraction_increase_beyond_abs_tolerance_fails(self):
        current = json.loads(json.dumps(BASELINE))
        current["pipeline"]["bubble_fraction"] = 0.376 + 0.05
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 1)
        self.assertIn("regressed: pipeline.bubble_fraction", report)

    def test_bubble_fraction_within_tolerance_passes(self):
        current = json.loads(json.dumps(BASELINE))
        current["pipeline"]["bubble_fraction"] = 0.376 + 0.015
        code, _ = run_compare(BASELINE, current)
        self.assertEqual(code, 0)

    def test_bubble_fraction_decrease_is_improvement(self):
        current = json.loads(json.dumps(BASELINE))
        current["pipeline"]["bubble_fraction"] = 0.376 - 0.05
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 0)
        self.assertIn("improved", report)

    def test_throughput_ratio_drop_beyond_rel_tolerance_fails(self):
        current = json.loads(json.dumps(BASELINE))
        current["throughput_ratio"] = 2.343 * 0.95
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 1)
        self.assertIn("regressed: throughput_ratio", report)

    def test_throughput_ratio_gain_passes(self):
        current = json.loads(json.dumps(BASELINE))
        current["throughput_ratio"] = 2.343 * 1.10
        code, _ = run_compare(BASELINE, current)
        self.assertEqual(code, 0)

    def test_slo_attainment_drop_fails_absolute(self):
        current = json.loads(json.dumps(BASELINE))
        current["pipeline"]["slo_attainment"] = 0.8809 - 0.05
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 1)
        self.assertIn("pipeline.slo_attainment", report)

    def test_p99_latency_regression_fails_relative(self):
        current = json.loads(json.dumps(BASELINE))
        current["pipeline"]["p99_ms"] = 1.166 * 1.10
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 1)
        self.assertIn("regressed: pipeline.p99_ms", report)

    def test_config_echo_change_warns_but_passes(self):
        current = json.loads(json.dumps(BASELINE))
        current["model"] = "sppnet_c3"
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 0)
        self.assertIn("changed", report)


class MutationChecks(unittest.TestCase):
    def test_fusion_off_fails_the_fusion_gate(self):
        with open(os.path.join(BASELINES, "BENCH_fusion.json")) as f:
            baseline = json.load(f)
        # What bench_fusion reports when the optimizer fuses nothing: the
        # "fused" graph keeps all 19 launches and the naive latencies.
        self.assertEqual(baseline["naive_launches"], 19)
        current = dict(baseline)
        current["fused_launches"] = baseline["naive_launches"]
        current["launch_reduction"] = 0.0
        current["fused_fp32_latency_ms"] = baseline["naive_fp32_latency_ms"]
        current["fused_int8_latency_ms"] = baseline["naive_int8_latency_ms"]
        current["fp32_speedup"] = 1.0
        current["int8_speedup"] = 1.0
        code, report = run_compare(baseline, current)
        self.assertEqual(code, 1)
        fail_line = next(line for line in report.splitlines()
                         if line.startswith("**FAIL**"))
        self.assertIn("fused_launches", fail_line)
        self.assertIn("launch_reduction", fail_line)


class Report(unittest.TestCase):
    def test_report_file_written(self):
        with tempfile.TemporaryDirectory() as tmp:
            report_path = os.path.join(tmp, "diff.md")
            base_path = os.path.join(tmp, "b.json")
            cur_path = os.path.join(tmp, "c.json")
            with open(base_path, "w") as f:
                json.dump(BASELINE, f)
            with open(cur_path, "w") as f:
                json.dump(BASELINE, f)
            out = io.StringIO()
            with redirect_stdout(out):
                code = bench_compare.main(
                    [base_path, cur_path, "--report", report_path])
            self.assertEqual(code, 0)
            with open(report_path) as f:
                self.assertIn("**PASS**", f.read())


if __name__ == "__main__":
    unittest.main()
