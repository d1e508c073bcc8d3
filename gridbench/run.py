#!/usr/bin/env python3
"""Grid benchmark: one command that builds, runs and checks a workload.

Run from the repository root:

    python3 gridbench/run.py --workload many-small --seed 1 --seconds 10 --trace 0
    python3 gridbench/run.py --self-test

The first call configures and builds the library from src/ plus the driver
in gridbench/src into .bench_build/gridbench (Release). The driver, the
supervisor, starts an army process on cores apart from its own, runs a
closed loop of jobs for --seconds, checks the verdicts (the correctness
gate) and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
This script checks that every metric BENCHMARK.json names is present with
its unit before passing the line on.

--self-test runs every workload at reduced size in both modes and asserts
that every metric is printed with its unit and that the gate ran.
layers.json maps each per-layer metric to the end-to-end metric and workload
it should move.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "gridbench")
BINARY = os.path.join(BUILD_DIR, "gridbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
LAYERS_JSON = os.path.join(HERE, "layers.json")
RUN_TIMEOUT_S = 170


def log(message):
    print("gridbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def run_driver(workload, seed, seconds, trace, smoke):
    """Runs the driver; returns (stdout lines, final result or None)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, cwd=ROOT, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return [], None
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        log("%s exited with status %d" % (workload, done.returncode))
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("%s: last line is not JSON" % workload)
        return lines, None


def check_result(result, trace):
    """Returns the problems with a result line (empty when it is sound)."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append("metric %s missing" % name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s has unit %r, want %r"
                            % (name, metrics[name].get("unit"), unit))
        elif not isinstance(metrics[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in metrics:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def gate_line(lines):
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "gate" in record:
            return record["gate"]
    return None


def self_test():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    with open(LAYERS_JSON) as handle:
        layers = json.load(handle)
    failures = []
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    workloads = {workload["name"] for workload in spec["workloads"]}
    for name in per_layer:
        mapping = layers.get(name)
        if not mapping or mapping.get("moves") not in end_to_end or \
                mapping.get("on") not in workloads:
            failures.append("layers.json: no valid mapping for %s" % name)
    for workload in sorted(workloads):
        for trace in (False, True):
            label = "%s trace=%d" % (workload, trace)
            lines, result = run_driver(workload, 1, 1.5, trace, smoke=True)
            if result is None:
                failures.append(label + ": no result")
                continue
            problems = check_result(result, trace)
            gate = gate_line(lines)
            if gate is None or gate.get("ran") is not True:
                problems.append("correctness gate did not run")
            if result["correct"] is not True:
                problems.append("correct is false")
            failures.extend("%s: %s" % (label, p) for p in problems)
            log("self-test %s: %s" % (label, "ok" if not problems else
                                      "; ".join(problems)))
    if failures:
        for failure in failures:
            log("FAIL " + failure)
        return 1
    log("self-test passed: %d workloads, both modes" % len(workloads))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced population (what --self-test runs)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    lines, result = run_driver(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
    if result is None:
        return 1
    problems = check_result(result, bool(args.trace))
    if problems:
        for problem in problems:
            log(problem)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
