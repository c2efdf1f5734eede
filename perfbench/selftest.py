#!/usr/bin/env python3
"""The benchmark's own test: its inputs and its work counts are deterministic.

Run from the repository root (builds perfbench first, like run.py):

    python3 perfbench/selftest.py

Checks, for every workload:
  * the same seed gives the same queries and churn schedule, and a
    different seed gives a different query list;
  * two end-to-end runs at one seed report the same bucket_dev_mean;
  * two traced runs at one seed report the same deterministic counts
    (eval.buckets_per_query, gridfile.pages_per_query,
    cluster.transition_bytes, cluster.replicas_retargeted).
Exits 1 on the first failure.
"""

import json
import subprocess
import sys

import run

EXACT_TRACE = ("eval.buckets_per_query", "gridfile.pages_per_query",
               "cluster.transition_bytes", "cluster.replicas_retargeted")


def dump(binary, workload, seed):
    return subprocess.run(
        [binary, "--dump", "--workload", workload, "--seed", str(seed)],
        check=True, stdout=subprocess.PIPE, text=True).stdout


def metrics(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "2", "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload}: run was not clean: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    binary = run.build()
    check(binary is not None, "build")
    for workload in run.WORKLOADS:
        a, b = dump(binary, workload, 7), dump(binary, workload, 7)
        check(a == b, f"{workload}: seed 7 repeats its queries and schedule")
        queries = lambda d: [l for l in d.splitlines() if l.startswith("q ")]
        check(queries(a) != queries(dump(binary, workload, 8)),
              f"{workload}: seed 8 gives a different query list")

        e1, e2 = (metrics(binary, workload, 7, 0) for _ in range(2))
        check(e1["bucket_dev_mean"] == e2["bucket_dev_mean"],
              f"{workload}: bucket_dev_mean repeats "
              f"({e1['bucket_dev_mean']})")

        t1, t2 = (metrics(binary, workload, 7, 1) for _ in range(2))
        for name in EXACT_TRACE:
            check(t1[name] == t2[name],
                  f"{workload}: {name} repeats ({t1[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
