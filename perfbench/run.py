#!/usr/bin/env python3
"""Build and run the griddecl serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hit --seed 1 --seconds 20 --trace 0

Builds the griddecl library and the perfbench program from source into
.bench_build/perfbench (CMake, Release), then runs one workload. The build
log goes to stderr; stdout ends with perfbench's one-line JSON result.
With --trace 1 the span log is written to
.bench_build/perfbench/traces/<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("serve_hit", "serve_miss", "cluster_churn")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
