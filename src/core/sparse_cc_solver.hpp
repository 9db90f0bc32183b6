// SparseCcSolver — the production engine: edges -> min-id labels.
//
// The paper's machine spends n(n+1) cells per generation because the
// adjacency matrix *is* the cell field.  This solver works from the edges
// instead and runs one of two engines (RunOptions::sparse_mode;
// DESIGN.md §14):
//
//  * link (kAuto, the default) — one pass of link-by-min union-find with
//    Rem's splicing over the edges the caller holds: a `from_edges`
//    CsrGraph's stored pairs, the arcs of a `Graph` or another CsrGraph.
//    It builds no adjacency and runs on one lane.  Each successful link is
//    the paper's "connect to the smallest neighbouring super node", made
//    one edge at a time; between blocks of edges, once enough splices
//    have deepened the forest, a pointer-jump pass turns it back into
//    stars, as the paper's jump step does.
//
//  * sync (kSync, and every round-loop feature below) — the
//    double-buffered golden reference over the CSR adjacency.  Hook sweeps
//    (next[v] = min(d[v], min_{u in N(v)} d[u]), the symmetric
//    label-propagation form of the same hook) alternate with pointer-jump
//    sweeps (next[v] = d[d[v]]) until stable.  Every sweep is a pure
//    function of the previous buffer, so the result — and the whole sweep
//    history — is bit-identical across thread counts and lane partitions.  Hook lanes are partitioned by degree prefix
//    (CsrGraph::edge_balanced_boundaries) so skewed graphs keep every lane
//    loaded.
//
// Both end in the same canonical min-id labeling.
//
// RunOptions honoured: instrument, sink (one "link" step, or the sync
// loop's "hook#" / "jump#" sweeps), threads (sync only),
// sparse_mode, self_check, deadline_ms, cancel (polled every few thousand
// edges) — plus the resilience surface (DESIGN.md §15), which runs on the
// sync loop: sparse_before_round / sparse_after_round (between-sweep
// fault-injection points), sparse_monitors (per-round label-lattice
// checks), certify (spanning-forest result certificate), checkpoint_dir
// (durable GSKP label-plane checkpoints with crash resume) and recovery
// (the detect -> rollback-to-anchor -> restart -> diagnose ladder).  Only
// the HirschbergGca-typed hooks — record_access,
// before_step/after_step/detect/final_check/on_restore, on_step — have no
// CSR equivalent and are ignored (DESIGN.md §12).
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
