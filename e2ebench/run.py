#!/usr/bin/env python3
"""End-to-end benchmark of the GPML engine (see BENCHMARK.json).

Builds the engine library and the benchmark binary from this checkout
(CMake, Release) into $CARGO_TARGET_DIR/e2ebench (default .bench_build),
then runs one workload (--seconds defaults to 45):

    python3 e2ebench/run.py --workload fraud_paths --seed 1 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Traced runs also write
their spans to $CARGO_TARGET_DIR/e2ebench/traces/<workload>-seed<n>.jsonl.

    python3 e2ebench/run.py --self-test

runs every workload of BENCHMARK.json on tiny inputs, untraced and traced,
and checks that every metric declared in BENCHMARK.json is printed
with its unit and that every output check passes.

Exits non-zero when the build fails, an output check fails, or the
benchmark binary does not finish in time.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "e2ebench")


def build():
    """Configures and builds the benchmark; returns its binary or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Both steps are quick no-ops once the tree is configured and built.
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("build failed", file=sys.stderr)
            return None
    binary = os.path.join(out, "e2ebench")
    return binary if os.path.exists(binary) else None


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def self_test(binary):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, out = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "0.3",
                "--trace", str(trace), "--tiny", "--setups", "1"])
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no JSON result line")
                continue
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append("a check failed")
            if result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append("requests failed or none attempted")
            metrics = result.get("metrics", {})
            differ = sorted(set(metrics) ^ set(declared[trace]))
            if differ:
                problems.append(f"metric names differ from BENCHMARK.json: "
                                f"{differ}")
            for name, unit in declared[trace].items():
                m = metrics.get(name, {})
                if m.get("unit") != unit:
                    problems.append(f"{name}: unit {m.get('unit')!r}")
                value = m.get("value")
                if (not isinstance(value, (int, float))
                        or not math.isfinite(value)):
                    problems.append(f"{name}: value {value!r}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {label}: {status}")
            if problems:
                failures.append(label)
    print("self-test " + ("PASSED" if not failures else
                          "FAILED: " + ", ".join(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)

    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        binary_args += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    code, out = run_binary(binary, binary_args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
