#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints JSON.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 30 --trace 0

The driver (perfbench/driver.cc and friends) is built with CMake from
perfbench/CMakeLists.txt, which compiles the library sources under src/
directly. The build directory is $CARGO_TARGET_DIR when set, else
.bench_build, relative to the current directory. Build output goes to
stderr. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer
ones.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j4"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build(build_dir)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--trace-out",
               str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"driver exited with {run.returncode}")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    unknown = set(metrics) - names
    if unknown:
        fail(f"driver reported undeclared metrics {sorted(unknown)}")
    for m in wanted:
        if m["name"] not in metrics:
            fail(f"driver did not report {m['name']}")
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {metrics[m['name']]['unit']}"
                 f" is not {m['unit']}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
