#!/usr/bin/env python3
"""Build the host-clock benchmark and run one workload.

Run from the root of a repository checkout:

    python3 hostbench/run.py --workload online --seed 1 --seconds 6 --trace 0

The first run configures and builds hostbench/ (and the repository's
libraries it links) under .bench_build/; later runs only re-check the build.
Each run gets a fresh, empty tile-tuner cache directory, so set-up always
pays cold tuning. The binary's report is passed through; the last stdout
line is the result JSON. The exit code is non-zero, and no result is
printed, when the checkout is incomplete, the build fails, the run times out
or any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("online", "scan", "train")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
FAULTS = ("flip-bit", "perturb-weight", "perturb-int8-weight", "shift-threshold")


def fail(message, code=2):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(code)


def checkout_root():
    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("hostbench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a repository checkout ({needed} is "
                 "missing)")
    return root


def build(root):
    build_dir = os.path.join(root, ".bench_build", "hostbench")
    log_path = os.path.join(root, ".bench_build", "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "hostbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build timed out after {BUILD_TIMEOUT_S} s (see {log_path})")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)} (see {log_path})")
    return os.path.join(build_dir, "hostbench")


def source_rev(root):
    """The git revision, or a digest of the sources when not a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "hostbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_overhead(results_dir, workload, seed, traced_lines):
    """Traced minus untraced end-to-end values: the tracing overhead."""
    path = os.path.join(results_dir, f"{workload}-seed{seed}.json")
    if not os.path.isfile(path):
        candidates = sorted(
            (os.path.join(results_dir, n) for n in os.listdir(results_dir)
             if n.startswith(workload + "-")), key=os.path.getmtime)
        if not candidates:
            print("tracing overhead: no untraced run of this workload to "
                  "compare with")
            return
        path = candidates[-1]
    with open(path) as f:
        untraced = json.load(f)["metrics"]
    for line in traced_lines:
        fields = line.split()
        if len(fields) < 3 or fields[0] != "e2e" or fields[1] not in untraced:
            continue
        traced, base = float(fields[2]), untraced[fields[1]]["value"]
        share = (traced - base) / base * 100.0 if base else float("nan")
        print(f"tracing overhead {fields[1]}: traced {traced:.6g} - untraced "
              f"{base:.6g} = {traced - base:+.6g} ({share:+.1f}%, "
              f"vs {os.path.basename(path)})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=FAULTS, default=None,
                        help="inject a fault (the benchmark's own tests)")
    args = parser.parse_args()

    root = checkout_root()
    binary = build(root)
    work = os.path.join(root, ".bench_build")
    results_dir = os.path.join(work, "results")
    os.makedirs(os.path.join(work, "tuner"), exist_ok=True)
    os.makedirs(os.path.join(work, "traces"), exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    tuner_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=os.path.join(work, "tuner"))
    trace_out = os.path.join(work, "traces",
                             f"{args.workload}-seed{args.seed}.trace.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tuner-dir", tuner_dir, "--trace-out", trace_out,
               "--git-rev", source_rev(root)]
    if args.inject:
        command += ["--inject", args.inject]
    env = dict(os.environ)
    for knob in ("DCN_TUNER", "DCN_TUNER_CACHE"):  # cold tuning, private dir
        env.pop(knob, None)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} run timed out after {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(tuner_dir, ignore_errors=True)

    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} run failed (exit {done.returncode})", 1)
    result = json.loads(lines[-1])
    missing = expected_metrics(root, args.trace) - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(root, args.trace)
    if missing or extra or not result["correct"]:
        fail(f"result does not match BENCHMARK.json (missing {sorted(missing)},"
             f" unexpected {sorted(extra)})", 1)
    if args.trace:
        report_overhead(results_dir, args.workload, args.seed, lines)
    else:
        with open(os.path.join(results_dir,
                               f"{args.workload}-seed{args.seed}.json"),
                  "w") as f:
            json.dump(result, f)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
