#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest|analytics|serving \
        --seed N --seconds S --trace 0|1 [--small]

Run from the repository root. The first call configures and builds the
library and the benchmark under .bench_build/perfbench (a few minutes);
later calls only rebuild what changed. The benchmark's own output is passed
through; its last line is the result object, checked here against the
metric names and units in BENCHMARK.json. The exit code is non-zero when the
build fails, an output is wrong, or the result does not match the contract.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the library sources (CMakeLists.txt, src/) are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        status = subprocess.call(
            ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    if status != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed (log: %s)" % log_path)


def expected_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json asks this mode to emit."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result has keys %s" % sorted(result))
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s, wrong unit %s"
                 % (missing, extra, wrong))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "analytics", "serving"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs and short phases (the self-test size)")
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if args.small:
        command.append("--small")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    result = check_result(lines[-1], args.trace == 1)
    if run.returncode != 0 or not result["correct"]:
        print(lines[-1])
        fail("the run reported wrong outputs (exit %d)" % run.returncode)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
