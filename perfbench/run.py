#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The simulator library (src/) and the benchmark (perfbench/*.cc) are built with
CMake in Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Each workload runs in a process of its own, so its
peak RSS is its own. The last line of standard output is the workload's
result object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["fleet_bringup", "fleet_busy", "board_compute", "fleet_observed"]
ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 100


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(f"build produced no binary at {binary}")
    return binary


def run_workload(binary, out_dir, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result object has keys {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    binary = build(build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_workload(binary, out_dir, workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
