#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout's sources and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper-suite|fresh-programs|server-mix \
        --seed N --seconds S --trace 0|1

The harness (perfbench/harness.cpp) is compiled with CMake into
.bench_build/perfbench on first use and rebuilt incrementally afterwards.
Build output and progress go to stderr; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 1
the per-layer spans are also written to .bench_build/perfbench/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("paper-suite", "fresh-programs", "server-mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/CMakeLists.txt beside perfbench/: not a source checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        die("--seconds must be 1..60")

    try:
        build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("harness exited with %d" % proc.returncode)
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    got = set(result["metrics"])
    if got != want:
        die("metric set differs from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - got), sorted(got - want)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
