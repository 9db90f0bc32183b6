#!/usr/bin/env bash
# Engine benchmark: sweep scheduling (dense whole-field vs sparse
# active-region), one thread vs the persistent pool, and the cost of the
# metrics layer.
#
# Builds bench_scaling from a **Release** tree and records the
# GcaHirschberg{Dense,Sparse}[Pool], EngineSweep* and *Traced series
# (median of N repetitions) into a machine-readable JSON file, then prints
# the sparse-over-dense speedups and the metrics-sink overhead.
#
# Numbers from unoptimised builds are meaningless, so the script refuses to
# run against a tree whose CMAKE_BUILD_TYPE is not Release (set
# ALLOW_NON_RELEASE=1 to override with a loud warning) and embeds the
# project build type into the output's context block.
#
# Usage: scripts/bench_engine.sh [output.json]
#   BUILD_DIR=build-foo scripts/bench_engine.sh   # non-default build tree
#   REPS=7 scripts/bench_engine.sh                # more repetitions
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
OUT=${1:-BENCH_engine.json}
REPS=${REPS:-5}

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

cmake --build "$BUILD_DIR" --target bench_scaling -j "$(nproc)"

"$BUILD_DIR"/bench/bench_scaling \
  --benchmark_filter='^BM_(EngineSweep(Sequential|Pool|PoolTraced)|GcaHirschberg|GcaHirschberg(Dense|Sparse|DensePool|SparsePool|Pool|Traced))/' \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

echo
echo "wrote $OUT"

# Embed the project build type (the library_build_type field only reflects
# the system google-benchmark library) and print the speedup tables.
python3 - "$OUT" "$BUILD_TYPE" <<'EOF'
import json, sys
path, build_type = sys.argv[1], sys.argv[2]
data = json.load(open(path))
data["context"]["project_build_type"] = build_type.lower()
json.dump(data, open(path, "w"), indent=2)

medians = {}
for bench in data["benchmarks"]:
    if bench.get("aggregate_name") != "median":
        continue
    medians[bench["run_name"]] = bench["real_time"]

def ratio_table(title, slow_tag, fast_tag):
    print(title)
    for fast_name, t_fast in sorted(medians.items()):
        if f"{fast_tag}/" not in fast_name:
            continue
        slow_name = fast_name.replace(f"{fast_tag}/", f"{slow_tag}/")
        if slow_name in medians and t_fast > 0:
            print(f"  {fast_name:36s} {medians[slow_name] / t_fast:5.2f}x")

ratio_table("sparse speedup over dense (median wall-clock per run):",
            "BM_GcaHirschbergDense", "BM_GcaHirschbergSparse")
ratio_table("sparse speedup over dense, pool x8:",
            "BM_GcaHirschbergDensePool", "BM_GcaHirschbergSparsePool")
print("metrics-sink overhead (median, traced / plain):")
for traced_name, t_traced in sorted(medians.items()):
    if "Traced/" not in traced_name:
        continue
    plain_name = traced_name.replace("Traced/", "/")
    if plain_name in medians and medians[plain_name] > 0:
        print(f"  {traced_name:36s} {t_traced / medians[plain_name] - 1.0:+6.1%}")
EOF
