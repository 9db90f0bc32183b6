#include "core/runner.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/cancel.hpp"
#include "gca/thread_pool.hpp"

namespace gcalib::core {

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {
  GCALIB_EXPECTS_MSG(options_.threads >= 1, "runner: threads must be >= 1");
  GCALIB_EXPECTS_MSG(options_.deadline_ms >= 0,
                     "runner: deadline_ms must be >= 0 (0 = unlimited)");
  GCALIB_EXPECTS_MSG(options_.retry_backoff_ms >= 0,
                     "runner: retry_backoff_ms must be >= 0");
  if (options_.threads > 1 && options_.policy == gca::ExecutionPolicy::kPool) {
    pool_ = gca::ThreadPool::shared(options_.threads);
  }
}

Runner::~Runner() = default;

QueryResult Runner::unwrap(QueryOutcome outcome) const {
  if (outcome.ok()) return std::move(outcome.result);
  // The bugfix contract of `solve`: a failing isolated solve rethrows as
  // the matching typed exception carrying the Status diagnosis, so callers
  // that skip the outcome API still see *why* the query failed.
  switch (outcome.status.code) {
    case StatusCode::kDeadlineExceeded:
      throw gca::DeadlineExceeded(outcome.status.message);
    case StatusCode::kCancelled:
      throw gca::Cancelled(outcome.status.message);
    default:
      throw ContractViolation(outcome.status.message);
  }
}

QueryResult Runner::solve(const graph::Graph& g) const {
  return unwrap(try_solve(g));
}

QueryResult Runner::solve(const graph::CsrGraph& g) const {
  return unwrap(try_solve(g));
}

QueryOutcome Runner::attempt_query(const SolverInput& input, std::size_t index,
                                   const RunOptions& base) const {
  QueryOutcome outcome;
  const unsigned max_attempts = options_.retries + 1;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto stamp = [&](QueryOutcome& o) -> QueryOutcome& {
    o.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return o;
  };
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    outcome.attempts = attempt + 1;
    if (options_.cancel != nullptr && options_.cancel->cancel_requested()) {
      outcome.status = Status::error(StatusCode::kCancelled,
                                     "query cancelled before execution");
      return stamp(outcome);
    }
    RunOptions run_options = base;
    if (options_.configure_query) options_.configure_query(index, run_options);
    // The deadline is a budget for the whole isolated solve: later attempts
    // only get what earlier attempts and backoffs left over, and an attempt
    // with no budget left fails immediately instead of running to certain
    // expiry.
    const std::int64_t query_deadline_ms = run_options.deadline_ms;
    if (query_deadline_ms > 0) {
      const std::int64_t remaining = query_deadline_ms - elapsed_ms();
      if (remaining <= 0) {
        outcome.status = Status::error(
            StatusCode::kDeadlineExceeded,
            "deadline budget exhausted before attempt " +
                std::to_string(attempt + 1));
        return stamp(outcome);
      }
      run_options.deadline_ms = remaining;
    }
    try {
      outcome.result = sparse_cc_solver().solve(input, run_options);
      outcome.status = Status{};
      return stamp(outcome);
    } catch (const gca::DeadlineExceeded& e) {
      // The budget is spent; a retry would just time out again later.
      outcome.status = Status::error(StatusCode::kDeadlineExceeded, e.what());
      return stamp(outcome);
    } catch (const gca::Cancelled& e) {
      outcome.status = Status::error(StatusCode::kCancelled, e.what());
      return stamp(outcome);
    } catch (const ContractViolation& e) {
      // Detected corruption (bad input, injected fault, failed self check):
      // retryable — a fresh machine re-derives everything from the graph.
      outcome.status = Status::error(StatusCode::kFailedPrecondition, e.what());
    } catch (const std::exception& e) {
      outcome.status = Status::error(StatusCode::kInternal, e.what());
    } catch (...) {
      outcome.status = Status::error(StatusCode::kInternal,
                                     "query failed with a non-standard exception");
    }
    if (attempt + 1 < max_attempts && options_.retry_backoff_ms > 0) {
      // Exponential backoff: base, 2x base, 4x base, ... — clamped to the
      // remaining deadline budget so a sleep can never outlive the query,
      // and skipped entirely (reporting expiry) when no budget remains.
      std::int64_t wait = options_.retry_backoff_ms << attempt;
      if (query_deadline_ms > 0) {
        const std::int64_t remaining = query_deadline_ms - elapsed_ms();
        if (remaining <= 0) {
          outcome.status = Status::error(
              StatusCode::kDeadlineExceeded,
              "deadline budget exhausted during retry backoff (last error: " +
                  outcome.status.message + ")");
          return stamp(outcome);
        }
        wait = std::min(wait, remaining);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
  }
  return stamp(outcome);  // last attempt's error status, attempts == max_attempts
}

QueryOutcome Runner::try_solve(const graph::Graph& g) const {
  const SolverInput input(g);
  return attempt_query(input, 0, lone_query_options(input));
}

QueryOutcome Runner::try_solve(const graph::CsrGraph& g) const {
  const SolverInput input(g);
  return attempt_query(input, 0, lone_query_options(input));
}

RunOptions Runner::lone_query_options(const SolverInput& input) const {
  RunOptions run_options = single_query_options();
  if (input.node_count() + 2 * input.edge_count() < kMinParallelQueryWork) {
    run_options.threads = 1;
    run_options.policy = gca::ExecutionPolicy::kSequential;
  }
  return run_options;
}

RunOptions Runner::single_query_options() const {
  RunOptions run_options;
  run_options.instrument = options_.instrument;
  run_options.threads = options_.threads;
  run_options.policy = options_.policy;
  run_options.sparse_mode = options_.sparse_mode;
  run_options.sink = options_.sink;
  run_options.deadline_ms = options_.deadline_ms;
  run_options.cancel = options_.cancel;
  run_options.checkpoint_dir = options_.checkpoint_dir;
  run_options.certify = options_.certify;
  return run_options;
}

std::vector<QueryOutcome> Runner::solve_batch(
    const std::vector<graph::Graph>& graphs) const {
  std::vector<QueryOutcome> outcomes(graphs.size());
  if (graphs.size() == 1) {
    // A one-query batch has no sibling queries to parallelise across —
    // sequentialising a large one would leave every lane but one idle.
    // Treat it exactly like the single-shot API: the full thread budget
    // (and with it the async sparse path) unless it is too small to pay
    // for a parallel dispatch.
    const SolverInput input(graphs[0]);
    outcomes[0] = attempt_query(input, 0, lone_query_options(input));
    return outcomes;
  }
  // Same options as a lone query (the sink is thread-safe; lanes push
  // concurrently), except that lanes parallelise across queries, so each
  // query sweeps sequentially, and that no checkpoint directory is shared:
  // sibling queries would race on one artifact file.
  RunOptions run_options = single_query_options();
  run_options.threads = 1;
  run_options.policy = gca::ExecutionPolicy::kSequential;
  run_options.checkpoint_dir.clear();

  const unsigned lanes = static_cast<unsigned>(
      std::min<std::size_t>(options_.threads, graphs.size()));
  if (pool_ == nullptr || lanes <= 1) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      outcomes[i] = attempt_query(SolverInput(graphs[i]), i, run_options);
    }
    return outcomes;
  }

  // attempt_query is noexcept in effect (it catches at the query boundary),
  // so no exception can reach the pool joins: a failing query can no longer
  // strand sibling lanes draining a dead cursor.
  std::atomic<std::size_t> cursor{0};
  auto lane = [&](unsigned) {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < graphs.size();
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      outcomes[i] = attempt_query(SolverInput(graphs[i]), i, run_options);
    }
  };
  pool_->run(lanes, lane);
  return outcomes;
}

}  // namespace gcalib::core
