#!/usr/bin/env python3
"""Compare two prebuilt perfbench binaries in alternating pairs.

    python3 scripts/perf_pairs.py --parent OLD/perfbench --change NEW/perfbench \\
        --workload serve_miss --seeds 60-69 [--seconds 20] [--trace 0]

Each seed is one pair: both binaries run that workload at that seed for the
same number of seconds (default: BENCHMARK.json's run_seconds), and the side
that runs first alternates from pair to pair. For every metric in the runs'
JSON result, and every "name value unit" line perfbench prints outside it
(such as transition_ms and fail_frac), the script prints each side's median
and quartiles, the change's median relative to the parent's, and how many
pairs the change won (ties count for neither side). A gain holds when the
change wins at least nine tenths of the pairs and the medians differ by
more than the distance between the parent's quartiles. Metric directions
("better": higher or lower) come from BENCHMARK.json, and PRINTED_BETTER
for the printed-only lines; a metric with no direction shows no wins. The
exit code is 1 when any run fails or reports a wrong answer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300
# Directions of the metrics perfbench prints but leaves out of its JSON.
PRINTED_BETTER = {"transition_ms": "lower", "fail_frac": "lower"}


def parse_seeds(text):
    """'60-69' or '3,5,8' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def directions():
    """Metric name -> 'higher' or 'lower', from BENCHMARK.json."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {}
    for group in ("end_to_end", "per_layer"):
        for metric in bench.get(group, []):
            better[metric["name"]] = metric["better"]
    return better, bench.get("run_seconds", 20)


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def printed_metrics(stdout, skip):
    """{name: value} of the "name value unit" lines of a run's stdout
    whose name is not in `skip`; a line with no unit is not a metric."""
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if (len(parts) >= 3 and parts[0] not in skip and is_number(parts[1])
                and not is_number(parts[2])):
            metrics[parts[0]] = float(parts[1])
    return metrics


def run(binary, workload, seed, seconds, trace):
    """One perfbench run -> {metric: value} from its JSON result and its
    printed metric lines, or None on a failed run."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"timeout: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        print(f"failed (exit {proc.returncode}): {' '.join(cmd)}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        print(f"wrong answers: {' '.join(cmd)}", file=sys.stderr)
        return None
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update(printed_metrics(proc.stdout, metrics))
    return metrics


def quartiles(values):
    """(q1, median, q3) of `values`; one value repeats itself."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent perfbench")
    parser.add_argument("--change", required=True, help="changed perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 60-69 or 3,5")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    better, run_seconds = directions()
    better.update(PRINTED_BETTER)
    seconds = args.seconds if args.seconds is not None else run_seconds
    sides = {"parent": args.parent, "change": args.change}
    # results[side] is one {metric: value} dict per pair, in seed order.
    results = {"parent": [], "change": []}
    failed = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, seconds,
                             args.trace)
        if pair["parent"] is None or pair["change"] is None:
            failed += 1
            continue
        for side in sides:
            results[side].append(pair[side])
        print(f"pair {i + 1} seed {seed} ({order[0]} first): "
              + ", ".join(f"{k} {results['parent'][-1][k]:.4g} -> "
                          f"{results['change'][-1][k]:.4g}"
                          for k in sorted(results["parent"][-1])
                          if k in results["change"][-1]),
              flush=True)

    pairs = len(results["parent"])
    if pairs == 0:
        print("no complete pair", file=sys.stderr)
        return 1
    print(f"\n{args.workload}: {pairs} pairs at {seconds} s"
          f"{f', {failed} pairs with a failed run' if failed else ''}")
    print(f"{'metric':<30} {'parent median [q1-q3]':>32} "
          f"{'change median [q1-q3]':>32} {'delta':>8} {'wins':>7}  gain")
    names = sorted(set(results["parent"][0]) & set(results["change"][0]))
    for name in names:
        old = [r[name] for r in results["parent"]]
        new = [r[name] for r in results["change"]]
        oq1, omed, oq3 = quartiles(old)
        nq1, nmed, nq3 = quartiles(new)
        direction = better.get(name)
        if direction == "higher":
            wins = sum(n > o for o, n in zip(old, new))
        elif direction == "lower":
            wins = sum(n < o for o, n in zip(old, new))
        else:
            wins = None
        delta = (nmed - omed) / omed * 100 if omed else float("nan")
        improved = (nmed > omed) if direction == "higher" else (nmed < omed)
        gain = (wins is not None and improved and wins * 10 >= pairs * 9
                and abs(nmed - omed) > oq3 - oq1)
        print(f"{name:<30} {f'{omed:.4g} [{oq1:.4g}-{oq3:.4g}]':>32} "
              f"{f'{nmed:.4g} [{nq1:.4g}-{nq3:.4g}]':>32} "
              f"{delta:>+7.1f}% "
              f"{(f'{wins}/{pairs}' if wins is not None else '-'):>7}  "
              f"{'yes' if gain else 'no'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
