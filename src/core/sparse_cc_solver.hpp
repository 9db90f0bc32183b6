// SparseCcSolver — Hirschberg-style hooking + pointer jumping over CSR.
//
// The paper's machine spends n(n+1) cells per generation because the
// adjacency matrix *is* the cell field.  This solver lays the graph out as
// an immutable CSR adjacency instead, so one generation costs O(m + n)
// words, and runs one of two generation-loop disciplines
// (RunOptions::sparse_mode; DESIGN.md §14):
//
//  * sync — the double-buffered golden reference.  Hook sweeps
//    (next[v] = min(d[v], min_{u in N(v)} d[u]) — the paper's "connect to
//    the smallest neighbouring super node", symmetric label-propagation
//    form) alternate with pointer-jump sweeps (next[v] = d[d[v]]) until
//    stable.  Every sweep is a pure function of the previous buffer, so
//    the result — and the whole sweep history — is bit-identical across
//    execution policies, thread counts and lane partitions.  Hook lanes
//    are partitioned by degree prefix (CsrGraph::edge_balanced_boundaries)
//    so skewed graphs keep every lane loaded.
//
//  * async — in-place concurrent CAS-min label propagation (Liu–Tarjan).
//    Labels live in one shared atomic array; hook passes partition the
//    *arc array* across lanes (a hub's row splits safely, because the
//    update is a CAS-min, not a private write) and later rounds sweep only
//    the worklist of changed vertices; shortcut passes compress label
//    chains with a root chase.  Labels only decrease and every stored
//    value names a same-component vertex, so the fixpoint is exactly the
//    same canonical min-id labeling sync produces — the *final labeling*
//    is deterministic even though the intermediate states are not.
//
// RunOptions honoured: instrument, threads, policy, sparse_mode,
// sparse_frontier, self_check, sink, deadline_ms, cancel (polled every
// few thousand arcs, like the engine's chunk boundaries) — plus the full
// resilience surface (DESIGN.md §15): sparse_before_round /
// sparse_after_round (between-sweep fault-injection points),
// sparse_monitors (per-round label-lattice checks), certify
// (spanning-forest result certificate), checkpoint_dir (durable GSKP
// label-plane checkpoints with crash resume) and recovery (the
// detect -> rollback-to-anchor-in-sync-mode -> restart -> diagnose
// ladder).  None of these costs anything when unset: the solve then runs
// the untouched fast round loops.  Only the HirschbergGca-typed hooks —
// record_access, before_step/after_step/detect/final_check/on_restore,
// on_step — have no CSR equivalent and are ignored (DESIGN.md §12).
#pragma once

#include "core/cc_solver.hpp"

namespace gcalib::core {

class SparseCcSolver final : public CcSolver {
 public:
  [[nodiscard]] const char* name() const override { return "sparse-csr"; }

  [[nodiscard]] QueryResult solve(const SolverInput& input,
                                  const RunOptions& options) const override;
};

}  // namespace gcalib::core
