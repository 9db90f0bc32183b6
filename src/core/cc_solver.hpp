// CcSolver — the connected-components interface both engines implement.
//
// Two engines sit behind one contract (DESIGN.md §12):
//
//  * `sparse_cc_solver()` — the production engine: one link-by-min
//    union-find pass over the edges, with Hirschberg-style hooking /
//    pointer jumping over a CSR adjacency as its sync reference
//    (core/sparse_cc_solver.hpp).  `core::Runner` and gcad run every query
//    on it.
//  * `dense_cc_solver()` — the paper-faithful (n+1) x n cell field
//    (core/hirschberg_gca.hpp), the golden reference with the full Table-1
//    observability, checkpoint/rollback recovery and durable checkpoints.
//    Declared here, defined next to `HirschbergGca`, and reached only by
//    name — tests, benches and `gca_cc_tool --substrate dense`.
//
// Both consume the same `RunOptions` (threads / deadline / cancel / metrics
// sink / self_check) and produce the same min-node-id canonical labeling,
// bit-identical to each other and across thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "gca/instrumentation.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace gcalib::core {

struct RunOptions;  // core/hirschberg_gca.hpp

/// One query's graph, on whichever representation the caller already has.
/// Solvers ask for the view they need (`dense()` / `csr()`); the missing
/// one is materialised lazily and cached for the duration of the query.
/// Not thread-safe — one SolverInput belongs to one query attempt.  The
/// referenced graph must outlive the input (non-owning).
class SolverInput {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor) — a Graph IS a solver input.
  SolverInput(const graph::Graph& dense) : dense_(&dense) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  SolverInput(const graph::CsrGraph& csr) : csr_(&csr) {}

  [[nodiscard]] graph::NodeId node_count() const {
    return dense_ != nullptr ? dense_->node_count() : csr_->node_count();
  }

  [[nodiscard]] bool has_dense() const { return dense_ != nullptr; }
  [[nodiscard]] bool has_csr() const { return csr_ != nullptr; }

  /// Adjacency-list view; materialised from a CSR input on first use
  /// (O(n + m)).  Only the dense reference solver asks a CSR input for
  /// it; its field is what costs O(n^2).
  [[nodiscard]] const graph::Graph& dense() const;

  /// CSR view; materialised from the dense graph on first use (O(n + m)).
  [[nodiscard]] const graph::CsrGraph& csr() const;

 private:
  const graph::Graph* dense_ = nullptr;
  const graph::CsrGraph* csr_ = nullptr;
  mutable std::unique_ptr<graph::Graph> dense_cache_;
  mutable std::unique_ptr<graph::CsrGraph> csr_cache_;
};

/// Labeling of one query — the shape every substrate produces.
struct QueryResult {
  std::vector<graph::NodeId> labels;  ///< min-id component label per node
  std::size_t components = 0;         ///< number of distinct labels
  std::size_t generations = 0;        ///< synchronous sweeps the query ran
  /// Per-sweep statistics, filled iff `RunOptions::instrument`.  The dense
  /// substrate reports the paper's Table-1 counters; the sparse substrate
  /// reports active cells and read totals (congestion histograms are a
  /// dense-field concept — see DESIGN.md §12).
  std::vector<gca::GenerationStats> sweeps;

  // --- resilience bookkeeping (both substrates; DESIGN.md §15) ----------
  unsigned rollbacks = 0;  ///< recovery rollbacks performed
  unsigned restarts = 0;   ///< fresh restarts performed
  std::vector<std::string> diagnoses;  ///< one entry per detected corruption
  bool resumed = false;    ///< resumed from a durable checkpoint
  unsigned resume_round = 0;  ///< round/iteration the resume entered at
  /// True when a spanning-forest certificate was built from the final
  /// labels and verified (`RunOptions::certify`).
  bool certified = false;
};

/// Per-query outcome of an isolated solve: the Status taxonomy plus the
/// result (valid iff `status.ok()`).
struct QueryOutcome {
  Status status;       ///< kOk / kDeadlineExceeded / kCancelled / error
  QueryResult result;  ///< meaningful only when `status.ok()`
  unsigned attempts = 1;  ///< attempts consumed (> 1 with retries)
  /// Wall-clock spent on this query across all attempts and backoffs.
  /// Service front-ends (gcad) feed this into their queue-wait estimator.
  std::int64_t elapsed_ns = 0;

  [[nodiscard]] bool ok() const { return status.ok(); }
  /// True when the query failed at least once and a retry produced a
  /// clean labeling.
  [[nodiscard]] bool recovered() const { return status.ok() && attempts > 1; }
};

/// A connected-components engine over one substrate.
///
/// Contract shared by all implementations:
///  * `solve` returns the min-node-id labeling, deterministically —
///    bit-identical across thread counts;
///  * honoured RunOptions: instrument, threads, self_check, sink,
///    deadline_ms, cancel.  Substrate-specific hooks (the dense field's
///    before_step / after_step / detect / recovery / checkpoint_dir /
///    record_access) are honoured where they exist and ignored where the
///    substrate has no equivalent — `solve` documents each;
///  * failures surface as exceptions: ContractViolation for detected
///    corruption or invalid input, gca::DeadlineExceeded / gca::Cancelled
///    for an expired budget.  `try_solve` is the never-throwing wrapper.
class CcSolver {
 public:
  virtual ~CcSolver() = default;

  /// Human-readable solver name ("dense-field" / "sparse-csr").
  [[nodiscard]] virtual const char* name() const = 0;

  /// Labels one graph.  Throws on failure (see class contract).
  [[nodiscard]] virtual QueryResult solve(const SolverInput& input,
                                          const RunOptions& options) const = 0;

  /// Single-attempt isolated solve: never throws, maps the exception
  /// taxonomy onto Status codes and stamps the wall clock.  Retry/backoff
  /// ladders live above this (core::Runner).
  [[nodiscard]] QueryOutcome try_solve(const SolverInput& input,
                                       const RunOptions& options) const;
};

/// The process-wide solver instances (stateless, thread-safe).  The dense
/// one is defined in core/hirschberg_gca.cpp, so a binary that only runs
/// the CSR engine never links the cell field.
[[nodiscard]] const CcSolver& dense_cc_solver();
[[nodiscard]] const CcSolver& sparse_cc_solver();

}  // namespace gcalib::core
