#!/usr/bin/env bash
# Regenerate the CI perf-gate baselines under bench/baselines/.
#
#   scripts/update_bench_baseline.sh [--repetitions N] [BENCH...]
#
# Builds Release into build-baseline/ and reruns the gated benches (or only
# the named ones, e.g. a13_serve a17_repair) with pinned repetitions,
# overwriting their bench/baselines/BENCH_*.json without the `metrics`
# section: scripts/compare_bench.py gates only `kernels` and `counters`,
# so the registry dump stays in the CI artifacts only. Commit the
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
  out="bench/baselines/BENCH_$b.json"
  "build-baseline/bench/bench_$b" \
    --bench-json="$out" \
    --bench-repetitions="$repetitions"
  # `metrics` is the last section; cut it textually so the other sections
  # keep the bench's own layout.
  python3 - "$out" <<'PY'
import json, sys
path = sys.argv[1]
text = open(path).read()
cut = text.find(',\n  "metrics": ')
if cut >= 0:
    stripped = text[:cut] + text[text.rindex("\n}"):]
    want = json.loads(text)
    del want["metrics"]
    assert json.loads(stripped) == want, path
    open(path, "w").write(stripped)
PY
done

echo "baselines updated:"
ls -l bench/baselines/
