// Runner — batch front-end for independent connected-components queries.
//
// The ROADMAP's service shape is "many small queries under heavy traffic",
// not one giant field: a stream of graphs (social subgraphs, circuit nets,
// image tiles) each needing a labeling.  Spinning a thread team per query
// would pay the setup cost the pool backend removed, so the Runner keeps
// one shared `gca::ThreadPool`, started by the first batch that needs it:
//
//  * `solve(graph)` — one query.  The default engine, the link pass, runs
//    on one lane; a query that needs the sync round loop (kSync or a
//    resilience feature) sweeps across the pool lanes;
//  * `solve_batch(graphs)` — many queries pulled off a shared cursor by
//    the pool lanes, each solved on one lane (the right grain for many
//    small graphs: lanes stay busy across query boundaries).
//
// Results always come back in input order.  Every query runs on the CSR
// engine (`sparse_cc_solver()`, DESIGN.md §12) on the representation it
// arrived in — the link pass reads a `graph::Graph`'s rows and a
// `CsrGraph`'s stored pairs directly — and its labeling is the canonical
// min-id labeling, bit-identical to n independent `gca_components` calls
// on the paper's field.  The field itself is never run here; callers that
// want it name `dense_cc_solver()`.
//
// Fault isolation (DESIGN.md §10): `solve_batch` confines every failure to
// its own query.  Each query runs under the batch deadline and retry
// policy and reports a `QueryOutcome` — ok, error-with-diagnosis, timed
// out, cancelled, or recovered-after-retry — so one corrupt input, one
// injected fault or one pathological graph no longer aborts its 63
// siblings.  No exception of any kind escapes `solve_batch`: the pool
// lanes catch at the query boundary, which also keeps the shared-cursor
// joins exception-safe (a throw can no longer leave lanes draining a dead
// cursor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "core/cc_solver.hpp"
#include "gca/execution.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace gcalib::gca {
class CancelToken;
class MetricsSink;
class ThreadPool;
}  // namespace gcalib::gca

namespace gcalib::core {

struct RunOptions;  // core/hirschberg_gca.hpp

/// Knobs of a Runner instance (validated by the constructor).
struct RunnerOptions {
  /// Pool width (1 = everything sequential).  `solve` sweeps a round-loop
  /// query across this many lanes; `solve_batch` spreads queries over them.
  unsigned threads = 1;
  /// Engine of the CSR solver (DESIGN.md §14): kAuto (the default) runs
  /// the link pass unless a query asks for a round-loop feature; kSync pins
  /// the double-buffered hook + jump reference.  The labeling is identical
  /// either way.
  gca::SparseMode sparse_mode = gca::SparseMode::kAuto;
  bool instrument = false;  ///< collect per-step statistics per query
  /// Metrics sink shared by every query (non-owning; nullptr = no tracing).
  /// `solve_batch` pushes steps from all pool lanes concurrently, so the
  /// sink must be thread-safe — `gca::Trace` is.
  gca::MetricsSink* sink = nullptr;

  // --- per-query fault isolation (solve_batch / try_solve) --------------

  /// Wall-clock budget per query in milliseconds (0 = unlimited).  The
  /// budget covers the *whole* isolated solve — every attempt and every
  /// backoff sleep draw from the same allowance, so retries can never
  /// stretch a query past its deadline.  An expired query reports
  /// kDeadlineExceeded; its siblings are unaffected.
  std::int64_t deadline_ms = 0;
  /// Re-attempts for a query that failed with detected corruption or an
  /// internal error (deadline and cancellation outcomes are final — their
  /// budget is already spent).  `attempts = retries + 1` total.
  unsigned retries = 0;
  /// Base backoff between attempts in milliseconds, doubled per retry
  /// (0 = immediate re-attempt; transient upsets usually only need the
  /// re-execution itself).  Each sleep is clamped to the remaining
  /// deadline budget: a query whose budget is already spent reports
  /// kDeadlineExceeded immediately instead of sleeping through it.
  std::int64_t retry_backoff_ms = 0;
  /// External kill switch observed by every query of a batch (non-owning).
  gca::CancelToken* cancel = nullptr;
  /// Durable checkpoint directory for *single-query* solves (DESIGN.md
  /// §15): forwarded to RunOptions::checkpoint_dir, so the query writes
  /// GSKP artifacts and resumes across a crash.  Deliberately NOT
  /// applied to multi-query batches — the queries would race on one
  /// artifact file; batch callers wanting durability assign per-query
  /// directories through `configure_query` (gcad does exactly this).
  std::string checkpoint_dir;
  /// Verify every result against a freshly built spanning-forest
  /// certificate (RunOptions::certify) — single queries and batches alike.
  bool certify = false;
  /// Per-attempt configuration hook: called with the query index before
  /// every attempt and may adjust that query's RunOptions (per-query
  /// deadlines, the sparse round hooks for fault injection, self checks).
  /// Runs on the solving lane — must be thread-safe across queries.
  std::function<void(std::size_t query, RunOptions& run)> configure_query;
};

// QueryResult / QueryOutcome live in core/cc_solver.hpp with the solver
// interface; the Runner re-exports them through this include for its
// callers (gcad, tools, tests).

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  [[nodiscard]] const RunnerOptions& options() const { return options_; }

  /// Labels one graph — the throwing single-query API, a documented thin
  /// wrapper over `try_solve`: the same deadline/retry policy applies, and
  /// a failing outcome is *rethrown with its Status diagnosis* as the
  /// matching typed exception (gca::DeadlineExceeded for an expired
  /// budget, gca::Cancelled for a tripped token, ContractViolation for
  /// everything else).  The diagnosis text is never silently discarded.
  [[nodiscard]] QueryResult solve(const graph::Graph& g) const;
  /// CSR-native overload: a million-edge graph never has to build its
  /// adjacency to be labelled.
  [[nodiscard]] QueryResult solve(const graph::CsrGraph& g) const;

  /// Labels one graph with full fault isolation: never throws, applies
  /// the deadline/retry policy, and reports the outcome.
  [[nodiscard]] QueryOutcome try_solve(const graph::Graph& g) const;
  /// CSR-native overload (see `solve(const graph::CsrGraph&)`).
  [[nodiscard]] QueryOutcome try_solve(const graph::CsrGraph& g) const;

  /// Labels every graph of the batch; queries are distributed over the
  /// pool lanes and each is solved on one lane.  Outcomes are
  /// in input order.  Every failure is confined to its own QueryOutcome —
  /// no exception escapes the batch, and the lane joins are exception-safe
  /// by construction (lanes catch at the query boundary).
  [[nodiscard]] std::vector<QueryOutcome> solve_batch(
      const std::vector<graph::Graph>& graphs) const;

 private:
  [[nodiscard]] QueryOutcome attempt_query(const SolverInput& input,
                                           std::size_t index,
                                           const RunOptions& base) const;
  /// RunOptions for a lone query: the full thread budget and sparse mode
  /// (a single query has the whole pool to itself).  Batch options derive
  /// from these.
  [[nodiscard]] RunOptions single_query_options() const;
  [[nodiscard]] QueryResult unwrap(QueryOutcome outcome) const;

  RunnerOptions options_;
  /// The batch pool, started by the first batch that runs queries side by
  /// side: a lone query's link pass runs on one lane and never needs it.
  mutable std::once_flag pool_started_;
  mutable std::shared_ptr<gca::ThreadPool> pool_;
};

}  // namespace gcalib::core
