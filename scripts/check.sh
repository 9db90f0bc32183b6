#!/usr/bin/env bash
# Builds gcalib under a sanitizer configuration and runs the full test
# suite (see README, "Sanitizer builds"), then builds the whole tree in
# Release with warnings as errors and runs the full suite there, then a
# perf-smoke pass from that Release tree: the sparse active-region sweep
# must not be slower than the dense whole-field sweep at n = 128 (>10%
# regression fails the check).
#
#   scripts/check.sh            # ASan + UBSan, then perf + crash smoke
#   scripts/check.sh thread     # TSan (exercises the parallel sweep)
#   scripts/check.sh address -R fault   # extra args go to ctest
#   SKIP_PERF_SMOKE=1 scripts/check.sh  # skip the perf guardrail
#   SKIP_TSAN_SMOKE=1 scripts/check.sh  # skip the TSan concurrent-mode pass
#   SKIP_CRASH_SMOKE=1 scripts/check.sh # skip the SIGKILL-resume smoke
#   SKIP_SOAK_SMOKE=1 scripts/check.sh  # skip the gcad fault/kill soak
#   SKIP_RELEASE_BUILD=1 scripts/check.sh  # skip the full Release build + ctest
#   SKIP_PERFBENCH_SMOKE=1 scripts/check.sh # skip the perfbench smoke runs
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER="${1:-address}"
shift || true
case "$SANITIZER" in
  address|thread) ;;
  *) echo "usage: scripts/check.sh [address|thread] [ctest args...]" >&2
     exit 64 ;;
esac

BUILD_DIR="build-${SANITIZER}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S . \
  -DGCALIB_SANITIZE="$SANITIZER" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$JOBS"

# Fast-fail pass over the engine/observability/CLI/service surface first:
# the observer re-entrancy, option-validation, metrics, IO-robustness,
# checkpoint round-trip, cancellation, graph and gcad admission/journal/
# protocol/pipe tests (GcadPipe drives the real binary over pipes) are the
# ones most likely to trip a sanitizer, and they finish in seconds.
# (Skipped when the caller passes its own ctest selection.)
if [ "$#" -eq 0 ]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" \
    -R '^([A-Za-z]+/)?(Engine|Metrics|Trace|Cli|Io|ActiveRegion|SweepIdentity|Checkpoint|Cancel|Gcad|Status|Substrate|Sparse|CcSolver|CsrGraph|Graph|SolverInput|Runner|Kernel|SparseFault|Certificate|Gskp|FuzzJournal|FuzzRequest)[A-Za-z]*\.'
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" "$@"

# TSan fast-fail over the shared state of the sparse engine: the parallel
# sync sweeps (DESIGN.md §14), the resilience surface (DESIGN.md §15) that
# threads fault hooks, monitors and GSKP checkpoint writes through them,
# CsrGraph's once-only adjacency build that concurrent readers race to
# start, and gcad's intake -> worker hand-off, where each query's flat
# graph (two arrays) is built on the intake thread and freed on a worker —
# so an address-sanitizer run still gives them one ThreadSanitizer pass
# from a dedicated build-thread tree.  Only those test binaries are built
# there — the full suite under TSan is the explicit `scripts/check.sh
# thread` run, and when that is already this run the extra pass would be
# redundant.
if [ "${SKIP_TSAN_SMOKE:-0}" != "1" ] && [ "$SANITIZER" != "thread" ] \
   && [ "$#" -eq 0 ]; then
  TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-thread}"
  cmake -B "$TSAN_BUILD_DIR" -S . \
    -DGCALIB_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$TSAN_BUILD_DIR" -j"$JOBS" \
    --target sparse_mode_test sparse_fault_test certificate_test \
             gskp_checkpoint_test csr_graph_test graph_test gcad_server_test
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j"$JOBS" \
    -R '^([A-Za-z]+/)?(SparseMode|SparseFault|Certificate|Gskp|CsrGraph|Graph|GcadServer)[A-Za-z]*\.'
  echo "tsan smoke: OK (sparse sweeps, resilience, lazy CSR and gcad's graph hand-off are race-clean)"
fi

# Release leg: the whole tree — tests included — in the Release build
# type, warnings as errors, then the full suite there.  The PaperGolden
# tests pin the paper benches' output in this build type too.  The tree is
# the one the Release smokes below reuse.
if [ "${SKIP_RELEASE_BUILD:-0}" != "1" ]; then
  RELEASE_BUILD_DIR="${PERF_BUILD_DIR:-build-bench}"
  cmake -B "$RELEASE_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DGCALIB_WERROR=ON
  cmake --build "$RELEASE_BUILD_DIR" -j"$JOBS"
  ctest --test-dir "$RELEASE_BUILD_DIR" --output-on-failure -j"$JOBS"
  echo "release build: OK (warnings as errors, full suite green)"
fi

# Perf smoke: timing under a sanitizer is meaningless, so this builds the
# guardrail from a plain Release tree (shared with bench_engine.sh) and
# fails if the sparse sweep regresses to >10% slower than dense at n = 128,
# if the CSR substrate loses its >=10x edge over the dense field at
# n = 2048 (DESIGN.md §12), if the link pass loses its >=3x edge over the
# one-lane sync reference at n = 262144 (DESIGN.md §14), or if detached
# resilience hooks cost the sync loop more than 3% (DESIGN.md §15).
if [ "${SKIP_PERF_SMOKE:-0}" != "1" ]; then
  PERF_BUILD_DIR="${PERF_BUILD_DIR:-build-bench}"
  if [ ! -d "$PERF_BUILD_DIR" ]; then
    cmake -B "$PERF_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$PERF_BUILD_DIR" --target perf_smoke -j"$JOBS"
  "$PERF_BUILD_DIR"/bench/perf_smoke 128
fi

# Crash-recovery smoke: SIGKILL a durable-checkpointed run mid-algorithm,
# relaunch with the same --checkpoint-dir, and require (a) a resume from a
# non-zero iteration and (b) a labeling that matches the BFS baseline.
# --step-delay-us widens the kill window so the KILL lands mid-run; if the
# process still finishes before the signal (heavily loaded machine), the
# smoke reports SKIP rather than failing on timing luck.
if [ "${SKIP_CRASH_SMOKE:-0}" != "1" ]; then
  PERF_BUILD_DIR="${PERF_BUILD_DIR:-build-bench}"
  if [ ! -d "$PERF_BUILD_DIR" ]; then
    cmake -B "$PERF_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$PERF_BUILD_DIR" --target gca_resilient_cc -j"$JOBS"
  CKPT_DIR="$(mktemp -d)"
  trap 'rm -rf "$CKPT_DIR"' EXIT
  "$PERF_BUILD_DIR"/examples/gca_resilient_cc --n 48 --rate 0 \
    --step-delay-us 8000 --checkpoint-dir "$CKPT_DIR" >/dev/null 2>&1 &
  VICTIM=$!
  sleep 0.6
  kill -9 "$VICTIM" 2>/dev/null || true
  wait "$VICTIM" 2>/dev/null || true
  if [ ! -f "$CKPT_DIR/hirschberg.ckpt" ]; then
    echo "crash-recovery smoke: SKIP (run finished before the kill landed)"
  else
    RELAUNCH="$("$PERF_BUILD_DIR"/examples/gca_resilient_cc --n 48 --rate 0 \
      --checkpoint-dir "$CKPT_DIR" 2>&1)"
    echo "$RELAUNCH" | grep -q 'resumed from durable checkpoint at iteration' \
      || { echo "crash-recovery smoke: FAIL (relaunch did not resume)" >&2
           echo "$RELAUNCH" >&2; exit 1; }
    echo "$RELAUNCH" | grep -q 'labels vs sequential BFS baseline: MATCH' \
      || { echo "crash-recovery smoke: FAIL (resumed labels are wrong)" >&2
           echo "$RELAUNCH" >&2; exit 1; }
    echo "crash-recovery smoke: OK (SIGKILL + resume + MATCH)"
  fi

  # Same drill on the sparse CSR substrate (a checkpointed solve runs the
  # sync round loop): SIGKILL a GSKP-checkpointed solve mid-lattice,
  # relaunch on the same directory, and require a mid-solve resume plus
  # union-find-identical labels.  The --round-delay-us stall widens the
  # kill window exactly like --step-delay-us does for the dense field above.
  cmake --build "$PERF_BUILD_DIR" --target sparse_resilient_cc -j"$JOBS"
  SPARSE_CKPT_DIR="$(mktemp -d)"
  "$PERF_BUILD_DIR"/examples/sparse_resilient_cc --n 20000 --rate 0 \
    --threads 4 --round-delay-us 300000 \
    --checkpoint-dir "$SPARSE_CKPT_DIR" >/dev/null 2>&1 &
  VICTIM=$!
  sleep 0.5
  kill -9 "$VICTIM" 2>/dev/null || true
  wait "$VICTIM" 2>/dev/null || true
  if [ ! -f "$SPARSE_CKPT_DIR/sparse.gskp" ]; then
    echo "sparse crash smoke: SKIP (finished before the kill)"
  else
    RELAUNCH="$("$PERF_BUILD_DIR"/examples/sparse_resilient_cc --n 20000 \
      --rate 0 --threads 4 --checkpoint-dir "$SPARSE_CKPT_DIR" 2>&1)"
    echo "$RELAUNCH" | grep -q 'resumed from durable sparse checkpoint' \
      || { echo "sparse crash smoke: FAIL (no resume)" >&2
           echo "$RELAUNCH" >&2; exit 1; }
    echo "$RELAUNCH" | grep -q 'labels vs union-find baseline: MATCH' \
      || { echo "sparse crash smoke: FAIL (wrong labels)" >&2
           echo "$RELAUNCH" >&2; exit 1; }
    echo "sparse crash smoke: OK (SIGKILL + resume + MATCH)"
  fi
  rm -rf "$SPARSE_CKPT_DIR"
fi

# perfbench smoke: build the benchmark's own Release tree (.bench_build/)
# and run every workload briefly, end to end and traced; each run checks
# every answer against union-find and must print "correct": true.
if [ "${SKIP_PERFBENCH_SMOKE:-0}" != "1" ]; then
  for WORKLOAD in svc-n4000 svc-n48 offline-1m; do
    for TRACE in 0 1; do
      OUT="$(python3 perfbench/run.py --workload "$WORKLOAD" --seed 1 \
        --seconds 2 --trace "$TRACE")" \
        || { echo "perfbench smoke ($WORKLOAD, trace $TRACE): FAIL" >&2
             echo "$OUT" >&2; exit 1; }
      echo "$OUT" | tail -n 1 | grep -q '"correct": true' \
        || { echo "perfbench smoke ($WORKLOAD, trace $TRACE): FAIL" >&2
             echo "$OUT" >&2; exit 1; }
      echo "perfbench smoke ($WORKLOAD, trace $TRACE): OK"
    done
  done
fi

# gcad soak smoke: saturate the daemon with mixed-priority traffic while
# injecting step faults, SIGKILL it mid-stream, restart on the same journal,
# and require that every accepted query still reaches a terminal reply with
# labels matching an offline union-find (zero accepted-query loss).  The
# soak driver does all auditing itself and exits non-zero on any violation.
if [ "${SKIP_SOAK_SMOKE:-0}" != "1" ]; then
  PERF_BUILD_DIR="${PERF_BUILD_DIR:-build-bench}"
  if [ ! -d "$PERF_BUILD_DIR" ]; then
    cmake -B "$PERF_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$PERF_BUILD_DIR" --target gcad gcad_soak -j"$JOBS"
  SOAK_DIR="$(mktemp -d)"
  trap 'rm -rf "${CKPT_DIR:-}" "${SOAK_DIR:-}"' EXIT
  "$PERF_BUILD_DIR"/examples/gcad_soak \
    --gcad "$PERF_BUILD_DIR"/examples/gcad \
    --journal "$SOAK_DIR/soak.gcqj" \
    --queries 120 --fault-rate 0.3 --kill \
    || { echo "gcad soak smoke: FAIL" >&2; exit 1; }
  echo "gcad soak smoke: OK (faults + SIGKILL + restart, zero loss)"

  # Checkpointed leg of the same soak: hand the daemon a checkpoint
  # directory so journal-replayed queries resume their solves from durable
  # per-query GSKP state instead of recomputing from round zero.
  "$PERF_BUILD_DIR"/examples/gcad_soak \
    --gcad "$PERF_BUILD_DIR"/examples/gcad \
    --journal "$SOAK_DIR/soak_sparse.gcqj" \
    --checkpoint-dir "$SOAK_DIR/ckpt" \
    --queries 120 --fault-rate 0.3 --kill \
    || { echo "gcad sparse soak smoke: FAIL" >&2; exit 1; }
  echo "gcad sparse soak smoke: OK (sparse faults + SIGKILL + resume, zero loss)"
fi
