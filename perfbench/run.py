#!/usr/bin/env python3
"""Build the benchmark and run one workload, or all of them.

    python3 perfbench/run.py --workload update_gc|read_mostly|server_sync|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default .bench_build). Each workload runs in
its own process, so its set-up time and peak memory are its own. The last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. With --workload all
every workload's lines are printed in turn, followed by a combined result
whose metric names are prefixed with the workload.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["update_gc", "read_mostly", "server_sync"]
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    # Write the build's output back to disk now, not during the measurement.
    os.sync()
    return os.path.join(ROOT, target, "release", "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    missing = set(declared_metrics(args.trace)) - set(result.get("metrics", {}))
    if missing:
        sys.exit(f"perfbench: {workload} did not report {sorted(missing)}")
    return lines, result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        lines, results[w] = run_one(binary, w, args)
        print("\n".join(lines), flush=True)
    if args.workload == "all":
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
        print(json.dumps(combined))


if __name__ == "__main__":
    main()
