#!/usr/bin/env python3
"""Unit tests for bench_compare.py, run from ctest as `test_bench_compare`.

Covers the gate semantics the CI bench jobs rely on: missing keys fail,
each metric is held to the gate its baseline declares, a run whose gates
differ from its baseline's fails, and every committed baseline passes against
itself and fails against the run its benched mechanism failing would give.
"""

import copy
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


def changed(doc, values):
    """A deep copy of `doc` with each dotted metric path in `values` set."""
    out = copy.deepcopy(doc)
    for path, value in values.items():
        *outer, leaf = path.split(".")
        node = out
        for name in outer:
            node = node[name]
        node[leaf] = value
    return out


def failed_keys(report):
    """The set of keys the report's FAIL line names."""
    line = next(line for line in report.splitlines()
                if line.startswith("**FAIL**"))
    keys = set()
    for part in line.split(" — ", 1)[1].split("; "):
        keys.update(part.split(": ", 1)[1].split(", "))
    return keys


BASELINE = {
    "model": "sppnet_c2",
    "devices": 192,
    "pipeline": {
        "throughput_rps": 587730.0,
        "p99_ms": 1.166,
        "slo_attainment": 0.8809,
        "bubble_fraction": 0.376,
        "completed": 912755,
    },
    "throughput_ratio": 2.343,
    "gates": {
        "pipeline.throughput_rps": {"better": "higher", "relative": 0.02},
        "pipeline.p99_ms": {"better": "lower", "relative": 0.02},
        "pipeline.slo_attainment": {"better": "higher", "absolute": 0.02},
        "pipeline.bubble_fraction": {"better": "lower", "absolute": 0.02},
        "throughput_ratio": {"better": "higher", "relative": 0.02},
    },
}


class Gates(unittest.TestCase):
    def check(self, values, expected_code, baseline=BASELINE):
        code, report = run_compare(baseline, changed(baseline, values))
        self.assertEqual(code, expected_code, report)
        return report

    def test_missing_keys_fail_numeric_or_not(self):
        current = copy.deepcopy(BASELINE)
        del current["pipeline"]["p99_ms"], current["model"]
        code, report = run_compare(BASELINE, current)
        self.assertEqual(code, 1)
        self.assertIn("missing from current run: model, pipeline.p99_ms",
                      report)

    def test_extra_key_in_current_is_not_a_failure(self):
        report = self.check({"pipeline.new_metric": 1.0}, 0)
        self.assertIn("**PASS**", report)

    def test_absolute_tolerance(self):
        report = self.check({"pipeline.bubble_fraction": 0.376 + 0.05}, 1)
        self.assertIn("regressed: pipeline.bubble_fraction", report)
        report = self.check({"pipeline.slo_attainment": 0.8809 - 0.05}, 1)
        self.assertIn("regressed: pipeline.slo_attainment", report)
        self.check({"pipeline.bubble_fraction": 0.376 + 0.015}, 0)
        report = self.check({"pipeline.bubble_fraction": 0.376 - 0.05}, 0)
        self.assertIn("improved", report)

    def test_relative_tolerance(self):
        report = self.check({"throughput_ratio": 2.343 * 0.95}, 1)
        self.assertIn("regressed: throughput_ratio", report)
        report = self.check({"pipeline.p99_ms": 1.166 * 1.10}, 1)
        self.assertIn("regressed: pipeline.p99_ms", report)
        self.check({"pipeline.p99_ms": 1.166 * 1.015}, 0)
        report = self.check({"throughput_ratio": 2.343 * 1.10}, 0)
        self.assertIn("improved", report)

    def test_config_echo_change_warns_but_passes(self):
        report = self.check({"model": "sppnet_c3"}, 0)
        self.assertIn("changed", report)

    def test_gate_comes_from_the_declaration_not_the_name(self):
        # An ungated count may move freely; once declared, it is held.
        self.check({"pipeline.completed": 0}, 0)
        gated = copy.deepcopy(BASELINE)
        gated["gates"]["pipeline.completed"] = {"better": "higher",
                                                "relative": 0.02}
        report = self.check({"pipeline.completed": 0}, 1, gated)
        self.assertEqual(failed_keys(report), {"pipeline.completed"})

    def test_gates_that_differ_from_the_baseline_fail_naming_the_key(self):
        loosened = copy.deepcopy(BASELINE)
        loosened["gates"]["pipeline.p99_ms"]["relative"] = 0.5
        dropped = copy.deepcopy(BASELINE)
        del dropped["gates"]["throughput_ratio"]
        for current, key in ((loosened, "pipeline.p99_ms"),
                             (dropped, "throughput_ratio")):
            code, report = run_compare(BASELINE, current)
            self.assertEqual(code, 1)
            self.assertIn(f"gate differs from baseline: {key}", report)

    def test_report_file_written(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "diff.md")
            code, _ = run_compare(BASELINE, BASELINE, ["--report", path])
            self.assertEqual(code, 0)
            with open(path) as f:
                self.assertIn("**PASS**", f.read())


def lost_to_dead_replicas(base):
    # The health monitor never marks the two crashed replicas dead, so from
    # the crash at 2 s to the end at 8 s they keep receiving 2/8 of the
    # traffic, and every request routed to them is lost.
    chaos = base["chaos"]
    kept = 1.0 - 2 / 8 * 6 / 8
    lost = round(chaos["completed"] * (1.0 - kept))
    return {"chaos.failed": lost, "chaos.completed": chaos["completed"] - lost,
            "chaos.availability": kept,
            **{f"chaos.{key}": chaos[key] * kept for key in
               ("goodput_rps", "throughput_rps", "slo_attainment")}}


# Per committed baseline: the edits a failure of the benched mechanism
# makes to its numbers, and the gated keys the FAIL line must name.
MUTATIONS = {
    # The dynamic batcher never forms a batch: it serves like serial.
    "BENCH_serving.json": (
        lambda b: {"dynamic": b["serial"], "speedup": 1.0},
        ["dynamic.throughput_rps", "dynamic.p50_ms", "dynamic.p95_ms",
         "dynamic.p99_ms", "dynamic.reject_rate", "dynamic.slo_attainment",
         "speedup"]),
    "BENCH_chaos.json": (
        lost_to_dead_replicas,
        ["chaos.availability", "chaos.goodput_rps", "chaos.throughput_rps",
         "chaos.slo_attainment", "chaos.failed"]),
    # Int8 kernels cost what fp32 ones do.
    "BENCH_quant.json": (
        lambda b: {"int8_latency_ms": b["fp32_latency_ms"], "speedup": 1.0},
        ["int8_latency_ms", "speedup"]),
    # The optimizer fuses nothing: the "fused" graph keeps all 19 launches
    # and the naive latencies.
    "BENCH_fusion.json": (
        lambda b: {"fused_launches": b["naive_launches"],
                   "launch_reduction": 0.0,
                   "fused_fp32_latency_ms": b["naive_fp32_latency_ms"],
                   "fused_int8_latency_ms": b["naive_int8_latency_ms"],
                   "fp32_speedup": 1.0, "int8_speedup": 1.0},
        ["fused_launches", "launch_reduction", "fused_fp32_latency_ms",
         "fused_int8_latency_ms", "fp32_speedup", "int8_speedup"]),
    # Stage 1 passes every tile, so each tile also runs the full model and
    # the cascade is at best as fast as the full-model scan.
    "BENCH_cascade.json": (
        lambda b: {"survivor_fraction": 1.0, "speedup": 1.0,
                   "cascade_tiles_per_sec": b["full_tiles_per_sec"]},
        ["cascade_tiles_per_sec", "speedup"]),
    # Pipeline groups serve no better than the paging replicas.
    "BENCH_pipeline.json": (
        lambda b: {"pipeline": b["replica"], "throughput_ratio": 1.0,
                   "bubble_fraction": 0.0},
        ["pipeline.throughput_rps", "pipeline.p50_ms", "pipeline.p99_ms",
         "pipeline.slo_attainment", "pipeline.reject_rate",
         "pipeline.cost_per_request_device_ms", "throughput_ratio"]),
    # The dispatched kernels miss the geomean floor over the scalar engine.
    "BENCH_microkernels.json": (
        lambda b: {"geomean_speedup_met": 0}, ["geomean_speedup_met"]),
}


class CommittedBaselines(unittest.TestCase):
    def test_each_compares_clean_and_gates_only_its_numeric_keys(self):
        self.assertEqual(sorted(os.listdir(BASELINES)), sorted(MUTATIONS))
        for name in MUTATIONS:
            with self.subTest(name):
                path = os.path.join(BASELINES, name)
                with redirect_stdout(io.StringIO()):
                    self.assertEqual(bench_compare.main([path, path]), 0)
                metrics, gates = bench_compare.load(path)
                self.assertTrue(gates)
                for key, gate in gates.items():
                    self.assertIsInstance(metrics.get(key), (int, float), key)
                    self.assertIn(gate["better"], ("lower", "higher"))
                    self.assertIn(set(gate), ({"better", "relative"},
                                              {"better", "absolute"}))


class MutationChecks(unittest.TestCase):
    def test_each_baseline_fails_when_its_mechanism_does(self):
        for name, (mutate, keys) in MUTATIONS.items():
            with self.subTest(name):
                with open(os.path.join(BASELINES, name)) as f:
                    baseline = json.load(f)
                current = changed(baseline, mutate(baseline))
                code, report = run_compare(baseline, current)
                self.assertEqual(code, 1, report)
                self.assertLessEqual(set(keys), failed_keys(report))

    def test_chaos_fails_on_one_lost_request(self):
        # One lost accepted request moves availability by 1/73762, far
        # inside its 0.02 tolerance; the zero-loss gate on failed sees it.
        with open(os.path.join(BASELINES, "BENCH_chaos.json")) as f:
            baseline = json.load(f)
        chaos = baseline["chaos"]
        current = changed(baseline, {
            "chaos.failed": 1, "chaos.completed": chaos["completed"] - 1})
        code, report = run_compare(baseline, current)
        self.assertEqual(code, 1, report)
        self.assertEqual(failed_keys(report), {"chaos.failed"})


if __name__ == "__main__":
    unittest.main()
