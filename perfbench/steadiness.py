#!/usr/bin/env python3
"""Runs two sets of N benchmark runs per workload and checks they agree.

    python3 perfbench/steadiness.py [--runs 10] [--workloads za_stream,calibration]

Every run uses its own --seed. For each (workload, end-to-end metric) pair
it prints each set's median and quartiles, the quartile spread as a share
of the median, and whether the pair is steady: the spread stays within the
metric's bound from BENCHMARK.json (set-up time excepted) and the two
sets' medians differ by no more than the bound, either way. The
share of failed operations must also be identical in every run. The raw
figures go to .bench_build/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEED_BASE = 1000


def one_run(spec, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    lines = result.stdout.decode().strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {result.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed the oracle")
    return out


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    raw = {}
    for s in range(SETS):
        for workload in workloads:
            for i in range(args.runs):
                seed = SEED_BASE + s * args.runs + i
                out = one_run(spec, workload, seed)
                raw.setdefault(workload, [[] for _ in range(SETS)])[s].append(out)
                values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"set {s + 1} {workload} seed {seed}: {values}", flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)

    steady = True
    print(f"\n{'workload':12} {'metric':14} {'bound':>6} "
          + " ".join(f"{'set ' + str(s + 1) + ' median [q1, q3] spread':>44}"
                     for s in range(SETS)) + "  drift   verdict")
    for workload in workloads:
        shares = {out["failed"] / out["attempted"] for runs in raw[workload] for out in runs}
        if len(shares) != 1:
            steady = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = [summary([out["metrics"][name]["value"] for out in runs])
                    for runs in raw[workload]]
            ok = all(name == "setup_s" or s["spread"] <= bound for s in sets)
            change = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            drift = change if metric["better"] == "lower" else -change
            ok = ok and abs(drift) <= bound
            steady = steady and ok
            cells = " ".join(f"{s['median']:12.5g} [{s['q1']:10.5g}, {s['q3']:10.5g}] "
                             f"{100 * s['spread']:5.1f}%" for s in sets)
            print(f"{workload:12} {name:14} {bound:6.2f} {cells} {100 * drift:+6.1f}%  "
                  f"{'ok' if ok else 'NOT STEADY'}")
    print("steady" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
