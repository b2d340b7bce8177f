#!/usr/bin/env python3
"""Builds and runs the ZA pipeline benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the benchmark (program sources included) under
.bench_build/ if needed and runs one workload; the last line of stdout is
the result JSON.

--smoke runs the oracle's own test and every workload, traced and
untraced, at a tiny scale, and checks that each prints exactly the metrics
BENCHMARK.json names.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["za_stream", "za_obs", "za_durable", "calibration"]
LANES = "2"
# A run measures --seconds, then finishes its round and checks its outputs.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds quietly; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no program sources (src/) next to perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(step)}")


def run(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    env = dict(os.environ, SISYPHUS_THREADS=LANES)
    command = [os.path.join(BUILD, "perfbench")] + args
    process = subprocess.Popen(command, env=env, cwd=ROOT,
                               stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return process.returncode, out.decode() if capture else None


def last_json(out):
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (AttributeError, IndexError, ValueError):
        return None


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    failures = []
    code = subprocess.run([os.path.join(BUILD, "perfbench_oracle_test")],
                          cwd=ROOT).returncode
    if code != 0:
        failures.append("oracle test")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run(["--workload", workload, "--seed", "1", "--seconds",
                             "1", "--trace", trace, "--smoke"], capture=True)
            sys.stdout.write(out or "")
            label = f"{workload} --trace {trace}"
            result = last_json(out)
            if result is None:
                failures.append(f"{label}: no result line (exit {code})")
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: exit {code}, result {result}")
            if set(result["metrics"]) != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print("smoke: PASS" if not failures else "smoke: FAIL")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    build()
    if args.smoke:
        return smoke()
    code, _ = run(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
