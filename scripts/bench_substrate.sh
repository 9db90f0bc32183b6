#!/usr/bin/env bash
# Substrate scaling benchmark: dense paper field vs the CSR engines
# (DESIGN.md §12, §14) over a ladder of random graphs up to a million
# edges.  Reports the sync reference's sequential + parallel times and the
# one-lane link pass at every rung, and the dense-field time where an
# O(n^2) field is still tractable, and writes the series to
# BENCH_substrate.json.
#
# Builds bench_substrate from a **Release** tree.  Numbers from unoptimised
# builds are meaningless, so the script refuses to run against a tree whose
# CMAKE_BUILD_TYPE is not Release (set ALLOW_NON_RELEASE=1 to override with
# a loud warning).
#
# Usage: scripts/bench_substrate.sh [output.json]
#   BUILD_DIR=build-foo scripts/bench_substrate.sh    # non-default tree
#   MAX_EDGES=65536 THREADS=1,2 scripts/bench_substrate.sh  # lighter run
#
# THREADS is a comma list: every rung times the sync reference at each
# count (1 = the baseline the per-thread speedup columns divide by).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
OUT=${1:-BENCH_substrate.json}
MAX_EDGES=${MAX_EDGES:-1000000}
THREADS=${THREADS:-1,2,4,8}
REPS=${REPS:-3}

if [ ! -d "$BUILD_DIR" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi

BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$BUILD_TYPE" != "Release" ]; then
  if [ "${ALLOW_NON_RELEASE:-0}" = "1" ]; then
    echo "WARNING: benchmarking a '$BUILD_TYPE' tree ($BUILD_DIR) —" >&2
    echo "WARNING: the numbers are NOT comparable to Release results." >&2
  else
    echo "error: $BUILD_DIR is a '$BUILD_TYPE' tree; benchmarks must run" >&2
    echo "error: from a Release build.  Use the default BUILD_DIR, or" >&2
    echo "error: reconfigure with -DCMAKE_BUILD_TYPE=Release, or set" >&2
    echo "error: ALLOW_NON_RELEASE=1 to record anyway (loudly)." >&2
    exit 1
  fi
fi

cmake --build "$BUILD_DIR" --target bench_substrate -j "$(nproc)"

"$BUILD_DIR"/bench/bench_substrate \
  --max-edges "$MAX_EDGES" --threads "$THREADS" --reps "$REPS" --out "$OUT"

echo "wrote $OUT"
