#!/usr/bin/env bash
# Line counts for simplicity reviews: non-blank C++ lines that are not
# `//` comments (so `///` doc comments are not counted either), over the
# .h/.cc files under each directory.
#
#   scripts/loc.sh [dir...]
#
# Prints one "<count> <dir>" line per directory, then a total when more
# than one directory is given. Defaults to `src tests`. Directories are
# taken relative to the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -eq 0 ]]; then
  set -- src tests
fi

total=0
for dir in "$@"; do
  if [[ ! -d "$dir" ]]; then
    echo "loc.sh: no such directory: $dir" >&2
    exit 1
  fi
  count=$(find "$dir" -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
    xargs -0 -r cat | grep -cvE '^[[:space:]]*(//|$)' || true)
  printf '%7d %s\n' "$count" "$dir"
  total=$((total + count))
done
if [[ $# -gt 1 ]]; then
  printf '%7d total\n' "$total"
fi
