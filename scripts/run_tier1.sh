#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/run_tier1.sh [--sanitize] [--sanitize=tsan] [--torture] \
#       [extra cmake args...]
#
# --sanitize configures an instrumented build (GRIDDECL_SANITIZE=
# address,undefined) in a separate build directory (build-sanitize) so it
# never pollutes the regular build tree, then runs ctest under both
# sanitizers. Remaining arguments are forwarded to the configure step,
# e.g. scripts/run_tier1.sh -DGRIDDECL_SANITIZE=address
#
# --sanitize=tsan builds with GRIDDECL_SANITIZE=thread in build-tsan and
# restricts ctest to the concurrent suites — the serving layer and its
# disk fault schedules, the serve and cluster chaos soaks, breakers,
# backoff, the fault-injecting env, the buffer pool / page store
# (concurrent pin/unpin/eviction, batched lookups), and the cluster
# (hedging, migration, placement, token bucket, repair, heartbeat) —
# where data races could actually live. TSan is incompatible with ASan,
# hence the separate mode and tree.
#
# --torture implies --sanitize but restricts ctest to the durability
# suites — crash-recovery, corruption, scrub/repair, format fuzzing and
# the page read path (Torture/FormatFuzz/Scrub/Manifest/Storage/
# StorageEnv/Crc32c/BufferPool/PageStore/PageIndex plus the declctl
# mkcatalog+fsck round trip) — so every injected crash point and byte
# flip, and every in-place page decode (UBSan checks its alignment), also
# runs under address and undefined-behavior sanitizers.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=build
test_args=()
configure_args=()
for arg in "$@"; do
  if [[ "$arg" == "--sanitize" || "$arg" == "--torture" ]]; then
    build_dir=build-sanitize
    configure_args+=("-DGRIDDECL_SANITIZE=address,undefined")
    if [[ "$arg" == "--torture" ]]; then
      test_args+=("-R" "Torture|FormatFuzz|Scrub|Manifest|Storage|Crc32c|BufferPool|PageStore|PageIndex|Migration|Placement|Repair|Heartbeat|declctl_mkcatalog|declctl_fsck")
    fi
  elif [[ "$arg" == "--sanitize=tsan" ]]; then
    build_dir=build-tsan
    configure_args+=("-DGRIDDECL_SANITIZE=thread")
    test_args+=("-R" "QueryService|Serve|Chaos|Breaker|Backoff|FaultyEnv|DiskFault|BufferPool|PageStore|Cluster|Hedge|Migration|Placement|TokenBucket|Repair|Heartbeat")
  else
    configure_args+=("$arg")
  fi
done

cmake -B "$build_dir" -S . ${configure_args+"${configure_args[@]}"}
cmake --build "$build_dir" -j
# test_args must precede the bare -j: ctest would otherwise consume the
# following -R as -j's optional value and silently drop the filter.
cd "$build_dir" && ctest --output-on-failure ${test_args+"${test_args[@]}"} -j
