#!/usr/bin/env bash
# Regenerate the CI perf-gate baselines under bench/baselines/.
#
#   scripts/update_bench_baseline.sh [--repetitions N] [BENCH...]
#
# Builds Release into build-baseline/ and reruns the gated benches (or only
# the named ones, e.g. a13_serve a17_repair) with pinned repetitions,
# overwriting their bench/baselines/BENCH_*.json. Commit the
# result together with the change that legitimately moved the numbers, and
# say why in the commit message — the perf job compares every PR against
# these files.
set -euo pipefail

cd "$(dirname "$0")/.."

repetitions=7
if [[ "${1-}" == "--repetitions" ]]; then
  repetitions="$2"
  shift 2
fi

cmake -B build-baseline -S . -DCMAKE_BUILD_TYPE=Release
# Default: every bench the CI perf job gates (.github/workflows/ci.yml).
benches=(a10_disk_map a5_throughput a13_serve a14_pagescan a15_cluster
         a16_placement a17_repair)
if [[ $# -gt 0 ]]; then
  benches=("$@")
fi
targets=()
for b in "${benches[@]}"; do targets+=("bench_$b"); done
cmake --build build-baseline -j --target "${targets[@]}"

mkdir -p bench/baselines
for b in "${benches[@]}"; do
  "build-baseline/bench/bench_$b" \
    --bench-json="bench/baselines/BENCH_$b.json" \
    --bench-repetitions="$repetitions"
done

echo "baselines updated:"
ls -l bench/baselines/
