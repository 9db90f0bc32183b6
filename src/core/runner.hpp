// Runner — batch front-end for independent connected-components queries.
//
// The ROADMAP's service shape is "many small queries under heavy traffic",
// not one giant field: a stream of graphs (social subgraphs, circuit nets,
// image tiles) each needing a labeling.  Spinning an engine *and* a thread
// team per query would pay the setup cost the pool backend just removed,
// so the Runner owns one shared `gca::ThreadPool` and amortises it two
// ways:
//
//  * `solve(graph)` — one query, swept in parallel across the pool lanes
//    (the right grain for a large graph; below kMinParallelQueryWork it
//    runs on one lane);
//  * `solve_batch(graphs)` — many queries pulled off a shared cursor by
//    the pool lanes, each solved with a sequential sweep (the right grain
//    for many small graphs: no per-generation handshake at all, lanes stay
//    busy across query boundaries).
//
// Results always come back in input order.  Every query runs on the CSR
// engine (`sparse_cc_solver()`, DESIGN.md §12) — a `graph::Graph` input
// is converted through `SolverInput::csr()` — and its labeling is the
// canonical min-id labeling, bit-identical to n independent
// `gca_components` calls on the paper's field.  The field itself is never
// run here; callers that want it name `dense_cc_solver()`.
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
  unsigned threads = 1;  ///< pool width (1 = everything sequential)
  /// Backend for the per-query sweep in `solve`; `solve_batch` uses the
  /// pool across queries whenever the policy is kPool and threads > 1.
  gca::ExecutionPolicy policy = gca::ExecutionPolicy::kPool;
  /// Generation-loop discipline of the CSR engine (DESIGN.md §14): kSync
  /// pins the double-buffered reference, kAsync the concurrent CAS-min
  /// path, kAuto (the default) picks async exactly when the query sweeps
  /// in parallel.  The converged labeling is identical either way.
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

/// Work n + 2m below which a lone query (`try_solve`, a one-query
/// `solve_batch`) runs on one lane with the sequential policy, whatever
/// `threads` says: a parallel dispatch costs more than it saves there.
/// From the measured crossover of `try_solve`, 1 lane vs 2 (DESIGN.md
/// §14): 1e5 on sparse G(n, 2n) and 2e5 on dense small-n graphs on one
/// 4-vCPU host; the power of two between them.
inline constexpr std::size_t kMinParallelQueryWork = std::size_t{1} << 17;

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
  /// CSR-native overload: a million-edge graph never has to build per-node
  /// lists to be labelled.
  [[nodiscard]] QueryResult solve(const graph::CsrGraph& g) const;

  /// Labels one graph with full fault isolation: never throws, applies
  /// the deadline/retry policy, and reports the outcome.
  [[nodiscard]] QueryOutcome try_solve(const graph::Graph& g) const;
  /// CSR-native overload (see `solve(const graph::CsrGraph&)`).
  [[nodiscard]] QueryOutcome try_solve(const graph::CsrGraph& g) const;

  /// Labels every graph of the batch; queries are distributed over the
  /// pool lanes and each is solved with a sequential sweep.  Outcomes are
  /// in input order.  Every failure is confined to its own QueryOutcome —
  /// no exception escapes the batch, and the lane joins are exception-safe
  /// by construction (lanes catch at the query boundary).
  [[nodiscard]] std::vector<QueryOutcome> solve_batch(
      const std::vector<graph::Graph>& graphs) const;

 private:
  [[nodiscard]] QueryOutcome attempt_query(const SolverInput& input,
                                           std::size_t index,
                                           const RunOptions& base) const;
  /// RunOptions for a lone query: the full thread budget, policy and
  /// sparse mode (a single query has the whole pool to itself).  Batch
  /// options derive from these.
  [[nodiscard]] RunOptions single_query_options() const;
  /// `single_query_options`, on one sequential lane when the query's work
  /// is below kMinParallelQueryWork.
  [[nodiscard]] RunOptions lone_query_options(const SolverInput& input) const;
  [[nodiscard]] QueryResult unwrap(QueryOutcome outcome) const;

  RunnerOptions options_;
  std::shared_ptr<gca::ThreadPool> pool_;
};

}  // namespace gcalib::core
