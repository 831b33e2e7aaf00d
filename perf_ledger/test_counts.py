#!/usr/bin/env python3
"""Exact-count test of the perf ledger.

Runs the traced run of every workload twice at one seed and requires every
count the ledger reports to be identical across the two runs, so later
changes can cite them as counts. Run from the root of a checkout:

    python3 perf_ledger/test_counts.py [--seed N] [--seconds S]

Exits 0 when every count repeats, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["solo_narrow", "dp_wide", "tourney_socket", "store_ingest"]
COUNTS = [
    "tensor.gemm_calls_per_step",
    "util.pool_jobs_per_step",
    "nn.allreduce_bytes_per_step",
    "nn.buckets_per_step",
    "comm.bytes_per_round",
    "comm.messages_per_round",
    "core.checkpoint_bytes",
    "datastore.bytes_per_step",
    "datastore.local_hit_ratio",
    "datastore.file_reads",
]


def traced_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: traced run failed ({done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported correct=false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()

    failures = 0
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for name in COUNTS:
            if first[name] != second[name]:
                failures += 1
                print(f"FAIL {workload} {name}: {first[name]!r} != "
                      f"{second[name]!r}")
        print(f"ok   {workload}: " +
              ", ".join(f"{n}={first[n]:g}" for n in COUNTS if first[n]))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
