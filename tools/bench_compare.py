#!/usr/bin/env python3
"""Compare a benchmark JSON against its committed baseline and gate CI.

Usage:
    bench_compare.py BASELINE CURRENT [--report out.md]

Both files are BENCH_*.json exports (bench/report.hpp), whose ``gates``
object gives each gated metric's rule, e.g. ``"dynamic.p99_ms": {"better":
"lower", "relative": 0.02}``: a metric that moves against its better
direction by more than its tolerance (a fraction of the baseline value, or
an absolute amount) fails the gate (exit 1). Each metric is held to the
baseline's gate; metrics without one are informational. A run that declares
different gates than its baseline fails, so a gate changes only together
with its committed baseline. ANY key present in the baseline but missing
from the current run — numeric metric or config echo alike — is a hard
failure named in the FAIL line. The markdown report (written with --report,
printed to stdout either way) is uploaded as a CI artifact.
"""

import argparse
import json
import sys


def flatten(obj, prefix=""):
    flat = {}
    for key, value in obj.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def load(path):
    """Return (flattened metrics, gates) of one BENCH_*.json file."""
    with open(path) as f:
        doc = json.load(f)
    gates = doc.pop("gates", {})
    return flatten(doc), gates


def compare(baseline, current, gates, current_gates):
    """Yield (key, base, cur, delta_str, status) rows, worst first."""
    rows = [(key, gates.get(key), current_gates.get(key), "", "gate")
            for key in sorted(set(gates) | set(current_gates))
            if gates.get(key) != current_gates.get(key)]
    for key, base in sorted(baseline.items()):
        gate = gates.get(key)
        if key not in current:
            # Hard failure regardless of type: a key the baseline reports
            # must not silently vanish from a fresh run.
            rows.append((key, base, None, "", "missing"))
            continue
        cur = current[key]
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            status = "ok" if cur == base else "changed"
            rows.append((key, base, cur, "", status))
            continue
        delta = cur - base
        if gate is None:
            rows.append((key, base, cur, f"{delta:+g}", "info"))
            continue
        direction = 1 if gate["better"] == "higher" else -1
        if "absolute" in gate:
            tolerance = gate["absolute"]
            delta_str = f"{delta:+.4f}"
        else:
            tolerance = gate["relative"] * abs(base)
            pct = (delta / base * 100.0) if base else float("inf")
            delta_str = f"{pct:+.2f}%"
        status = "REGRESSION" if direction * delta < -tolerance else (
            "improved" if direction * delta > tolerance else "ok")
        rows.append((key, base, cur, delta_str, status))
    for key in sorted(set(current) - set(baseline)):
        rows.append((key, None, current[key], "", "new"))
    order = {"REGRESSION": 0, "missing": 1, "gate": 2, "changed": 3,
             "improved": 4, "ok": 5, "info": 6, "new": 7}
    rows.sort(key=lambda r: (order[r[4]], r[0]))
    return rows


def render(rows, baseline_path, current_path):
    lines = [
        f"# Bench comparison: `{current_path}` vs `{baseline_path}`",
        "",
        "| metric | baseline | current | delta | status |",
        "|---|---|---|---|---|",
    ]
    for key, base, cur, delta, status in rows:
        fmt = lambda v: "—" if v is None else (
            f"{v:.4f}" if isinstance(v, float) else str(v))
        mark = {"REGRESSION": "❌ REGRESSION", "missing": "❌ missing",
                "gate": "❌ gate differs", "changed": "⚠️ changed",
                "improved": "✅ improved", "ok": "ok", "info": "info",
                "new": "new"}[status]
        lines.append(
            f"| {key} | {fmt(base)} | {fmt(cur)} | {delta} | {mark} |")
    failed = [r for r in rows if r[4] in ("REGRESSION", "missing", "gate")]
    lines.append("")
    if failed:
        parts = []
        for status, label in (("REGRESSION", "regressed"),
                              ("missing", "missing from current run"),
                              ("gate", "gate differs from baseline")):
            keys = [r[0] for r in failed if r[4] == status]
            if keys:
                parts.append(f"{label}: " + ", ".join(keys))
        lines.append("**FAIL**: {} metric(s) — {}".format(
            len(failed), "; ".join(parts)))
    else:
        lines.append("**PASS**: no regressions")
    return "\n".join(lines) + "\n", len(failed)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Gate CI on benchmark JSON regressions.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--report", help="also write the markdown here")
    args = parser.parse_args(argv)

    baseline, gates = load(args.baseline)
    current, current_gates = load(args.current)
    rows = compare(baseline, current, gates, current_gates)
    report, failures = render(rows, args.baseline, args.current)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    sys.stdout.write(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
