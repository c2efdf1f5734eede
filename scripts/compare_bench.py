#!/usr/bin/env python3
"""CI perf-regression gate: diff BENCH_*.json artifacts against baselines.

Usage:
    scripts/compare_bench.py --baseline bench/baselines --current . \
        [--threshold-pct 15]

For every BENCH_<name>.json in the baseline directory, the same file must
exist in the current directory, and every kernel's median_ms may be at most
``threshold-pct`` percent slower than the baseline median. Faster is always
fine.

Deterministic work counters are gated exactly: every counter of the
baseline must be present in the current run with the same value. A drifted
or missing counter fails the gate, because it means the work changed; a
change that moves one on purpose rebaselines it in the same commit
(scripts/update_bench_baseline.sh) and says why. Counters that only the
current run has are allowed, so a bench can gain a counter before its
baseline does.

Only the ``kernels`` and ``counters`` sections are gated. A current run
may carry more (``timing_stats``, the ``metrics`` registry dump); the
checked-in baselines keep no ``metrics`` section, since nothing compares
it.

A delta table is printed either way; the exit status is non-zero when any
kernel regresses past the threshold, any counter drifts or goes missing,
or an artifact/kernel is missing.
"""

import argparse
import json
import pathlib
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory holding the checked-in BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--threshold-pct", type=float, default=15.0,
                        help="max allowed median slowdown per kernel")
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline)
    current_dir = pathlib.Path(args.current)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json under {baseline_dir}", file=sys.stderr)
        return 2

    failures = []
    rows = [("bench", "kernel", "base ms", "cur ms", "delta", "status")]

    for base_path in baselines:
        cur_path = current_dir / base_path.name
        if not cur_path.exists():
            failures.append(f"missing artifact {cur_path}")
            continue
        base = load(base_path)
        cur = load(cur_path)
        name = base.get("bench", base_path.stem)

        for kernel, stats in sorted(base.get("kernels", {}).items()):
            base_ms = stats["median_ms"]
            cur_stats = cur.get("kernels", {}).get(kernel)
            if cur_stats is None:
                failures.append(f"{name}: kernel '{kernel}' missing")
                continue
            cur_ms = cur_stats["median_ms"]
            delta_pct = (0.0 if base_ms == 0
                         else 100.0 * (cur_ms - base_ms) / base_ms)
            regressed = delta_pct > args.threshold_pct
            rows.append((name, kernel, f"{base_ms:.4f}", f"{cur_ms:.4f}",
                         f"{delta_pct:+.1f}%",
                         "REGRESSED" if regressed else "ok"))
            if regressed:
                failures.append(
                    f"{name}: {kernel} median {cur_ms:.4f} ms vs baseline "
                    f"{base_ms:.4f} ms ({delta_pct:+.1f}% > "
                    f"+{args.threshold_pct:g}%)")

        cur_counters = cur.get("counters", {})
        for counter, base_value in sorted(base.get("counters", {}).items()):
            if counter not in cur_counters:
                failures.append(f"{name}: counter '{counter}' missing")
            elif cur_counters[counter] != base_value:
                failures.append(
                    f"{name}: counter '{counter}' drifted "
                    f"{base_value} -> {cur_counters[counter]}")

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"\nall kernels within +{args.threshold_pct:g}% of baseline, "
          "all counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
