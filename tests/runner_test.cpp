// Runner tests: batch bit-compatibility against the BFS baseline plus the
// fault-isolation contract of DESIGN.md §10 — a batch confines every
// failure (corrupt state, expired deadline, cancellation) to its own
// QueryOutcome, retries recover transient corruption, and no exception
// ever escapes solve_batch.
#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hirschberg_gca.hpp"
#include "fault/sparse_fault.hpp"
#include "gca/cancel.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace gcalib::core {
namespace {

using graph::Graph;
using graph::NodeId;

std::vector<Graph> mixed_batch() {
  // Mixed sizes and shapes: the batch path must handle tiny fields,
  // disconnected graphs, and a dense component soup side by side.
  std::vector<Graph> graphs;
  graphs.push_back(graph::make_named("path", 5, 1));
  graphs.push_back(graph::make_named("star", 9, 2));
  graphs.emplace_back(3);  // edgeless: three singleton components
  graphs.push_back(graph::random_gnp(24, 0.08, 11));
  graphs.push_back(graph::random_gnp(40, 0.03, 12));
  graphs.push_back(graph::make_named("cycle", 16, 3));
  graphs.push_back(graph::random_gnp(12, 0.5, 13));
  return graphs;
}

void expect_matches_baseline(const QueryResult& result, const Graph& g) {
  const std::vector<NodeId> expected = graph::bfs_components(g);
  EXPECT_EQ(result.labels, expected);
  std::size_t components = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (expected[v] == v) ++components;
  }
  EXPECT_EQ(result.components, components);
  EXPECT_GT(result.generations, 0u);
}

/// A CSR round hook that, before the given round, smashes vertex 0's label
/// with an out-of-range value.  The per-round lattice monitors switched on
/// here run right after the hook and before the sweep dereferences the
/// label — a detection-guaranteed ContractViolation.
void corrupt_at(RunOptions& run, unsigned site) {
  run.sparse_monitors = true;
  run.sparse_before_round = [site](const SparseRoundContext& round) {
    if (round.round == site) round.set(0, kInfData - 1);
  };
}

/// A CSR round hook that stalls every round for `ms` — with a 1 ms budget,
/// the deadline poll that follows the first round's sweep expires.
void stall_rounds(RunOptions& run, int ms) {
  run.sparse_before_round = [ms](const SparseRoundContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
}

unsigned corruption_site() { return 0; }

TEST(Runner, SingleQueryMatchesBaseline) {
  const Graph g = graph::random_gnp(20, 0.15, 5);
  Runner runner;
  expect_matches_baseline(runner.solve(g), g);
}

TEST(Runner, BatchMatchesBaselinesSequential) {
  const std::vector<Graph> graphs = mixed_batch();
  Runner runner;  // threads = 1: pure sequential fallback
  const std::vector<QueryOutcome> outcomes = runner.solve_batch(graphs);
  ASSERT_EQ(outcomes.size(), graphs.size());
  for (std::size_t q = 0; q < graphs.size(); ++q) {
    ASSERT_TRUE(outcomes[q].ok()) << outcomes[q].status.to_string();
    EXPECT_EQ(outcomes[q].attempts, 1u);
    EXPECT_FALSE(outcomes[q].recovered());
    expect_matches_baseline(outcomes[q].result, graphs[q]);
  }
}

TEST(Runner, BatchMatchesBaselinesPooled) {
  const std::vector<Graph> graphs = mixed_batch();
  RunnerOptions options;
  options.threads = 4;
  Runner runner(options);
  const std::vector<QueryOutcome> outcomes = runner.solve_batch(graphs);
  ASSERT_EQ(outcomes.size(), graphs.size());
  for (std::size_t q = 0; q < graphs.size(); ++q) {
    ASSERT_TRUE(outcomes[q].ok()) << outcomes[q].status.to_string();
    expect_matches_baseline(outcomes[q].result, graphs[q]);
  }
}

TEST(Runner, PooledBatchMatchesSequentialBatch) {
  // Results must be bit-compatible regardless of how queries land on lanes.
  const std::vector<Graph> graphs = mixed_batch();
  RunnerOptions pooled;
  pooled.threads = 3;
  const std::vector<QueryOutcome> a = Runner(pooled).solve_batch(graphs);
  const std::vector<QueryOutcome> b = Runner().solve_batch(graphs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_TRUE(a[q].ok() && b[q].ok());
    EXPECT_EQ(a[q].result.labels, b[q].result.labels);
    EXPECT_EQ(a[q].result.components, b[q].result.components);
    EXPECT_EQ(a[q].result.generations, b[q].result.generations);
  }
}

TEST(Runner, EmptyBatch) {
  Runner runner;
  EXPECT_TRUE(runner.solve_batch({}).empty());
}

TEST(Runner, BatchLargerThanPool) {
  // More queries than lanes: the shared cursor must drain the whole batch.
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 0; seed < 17; ++seed) {
    graphs.push_back(graph::random_gnp(10, 0.2, seed));
  }
  RunnerOptions options;
  options.threads = 4;
  const std::vector<QueryOutcome> outcomes = Runner(options).solve_batch(graphs);
  ASSERT_EQ(outcomes.size(), graphs.size());
  for (std::size_t q = 0; q < graphs.size(); ++q) {
    ASSERT_TRUE(outcomes[q].ok());
    EXPECT_EQ(outcomes[q].result.labels, graph::bfs_components(graphs[q]));
  }
}

TEST(Runner, RejectsZeroThreads) {
  RunnerOptions options;
  options.threads = 0;
  EXPECT_THROW(Runner{options}, std::exception);
}

TEST(Runner, RejectsNegativeDeadline) {
  RunnerOptions options;
  options.deadline_ms = -5;
  EXPECT_THROW(Runner{options}, std::exception);
}

TEST(Runner, TrySolveReportsOk) {
  const Graph g = graph::random_gnp(16, 0.2, 7);
  Runner runner;
  const QueryOutcome outcome = runner.try_solve(g);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_FALSE(outcome.recovered());
  expect_matches_baseline(outcome.result, g);
}

TEST(Runner, TrySolveIsolatesCorruption) {
  // A query whose state is smashed mid-run reports kFailedPrecondition with
  // the contract diagnosis instead of throwing.
  const Graph g = graph::random_gnp(16, 0.2, 7);
  RunnerOptions options;
  options.configure_query = [](std::size_t, RunOptions& run) {
    corrupt_at(run, corruption_site());
  };
  Runner runner(options);
  const QueryOutcome outcome = runner.try_solve(g);
  EXPECT_EQ(outcome.status.code, StatusCode::kFailedPrecondition);
  EXPECT_FALSE(outcome.status.message.empty());
  EXPECT_EQ(outcome.attempts, 1u);
}

TEST(Runner, TrySolveReportsDeadlineExceeded) {
  const Graph g = graph::random_gnp(16, 0.2, 7);
  RunnerOptions options;
  options.retries = 3;  // must NOT be consumed: the budget is already spent
  options.configure_query = [](std::size_t, RunOptions& run) {
    run.deadline_ms = 1;
    stall_rounds(run, 3);
  };
  Runner runner(options);
  const QueryOutcome outcome = runner.try_solve(g);
  EXPECT_EQ(outcome.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.attempts, 1u) << "deadline outcomes must not retry";
}

TEST(Runner, RecoversAfterRetry) {
  // The corruption fires only on the first attempt of each query — the
  // retry must produce a clean labeling and report recovered().
  const Graph g = graph::random_gnp(16, 0.2, 7);
  std::atomic<unsigned> calls{0};
  RunnerOptions options;
  options.retries = 2;
  options.configure_query = [&calls](std::size_t, RunOptions& run) {
    if (calls.fetch_add(1) == 0) corrupt_at(run, corruption_site());
  };
  Runner runner(options);
  const QueryOutcome outcome = runner.try_solve(g);
  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_TRUE(outcome.recovered());
  expect_matches_baseline(outcome.result, g);
}

TEST(Runner, CancelledBatchReportsPerQuery) {
  gca::CancelToken token;
  token.request_cancel();
  RunnerOptions options;
  options.cancel = &token;
  Runner runner(options);
  const std::vector<QueryOutcome> outcomes =
      runner.solve_batch(mixed_batch());
  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status.code, StatusCode::kCancelled);
  }
}

// The acceptance scenario of ISSUE 5: a 64-query batch in which 4 queries
// have their state smashed mid-run and 2 exceed their deadline.  The other
// 58 must come back ok and bit-identical to a clean batch, the 6 failures
// must carry per-query diagnoses, and nothing may escape solve_batch.
TEST(Runner, BatchIsolatesCorruptAndExpiredQueries) {
  constexpr std::size_t kQueries = 64;
  const std::set<std::size_t> corrupt = {5, 17, 33, 60};
  const std::set<std::size_t> expired = {10, 44};

  std::vector<Graph> graphs;
  graphs.reserve(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    graphs.push_back(graph::random_gnp(static_cast<NodeId>(10 + q % 7), 0.25,
                                       static_cast<std::uint64_t>(q)));
  }

  RunnerOptions options;
  options.threads = 4;
  options.configure_query = [&corrupt, &expired](std::size_t q,
                                                 RunOptions& run) {
    if (corrupt.count(q) != 0) corrupt_at(run, corruption_site());
    if (expired.count(q) != 0) {
      run.deadline_ms = 1;
      stall_rounds(run, 3);
    }
  };
  Runner runner(options);

  std::vector<QueryOutcome> outcomes;
  ASSERT_NO_THROW(outcomes = runner.solve_batch(graphs));
  ASSERT_EQ(outcomes.size(), kQueries);

  const std::vector<QueryOutcome> clean = Runner().solve_batch(graphs);
  std::size_t ok = 0;
  std::size_t diagnosed = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    if (corrupt.count(q) != 0) {
      EXPECT_EQ(outcomes[q].status.code, StatusCode::kFailedPrecondition)
          << "query " << q;
      EXPECT_FALSE(outcomes[q].status.message.empty());
      ++diagnosed;
    } else if (expired.count(q) != 0) {
      EXPECT_EQ(outcomes[q].status.code, StatusCode::kDeadlineExceeded)
          << "query " << q;
      EXPECT_FALSE(outcomes[q].status.message.empty());
      ++diagnosed;
    } else {
      ASSERT_TRUE(outcomes[q].ok())
          << "query " << q << ": " << outcomes[q].status.to_string();
      EXPECT_EQ(outcomes[q].result.labels, clean[q].result.labels)
          << "query " << q;
      EXPECT_EQ(outcomes[q].result.generations, clean[q].result.generations);
      ++ok;
    }
  }
  EXPECT_EQ(ok, kQueries - corrupt.size() - expired.size());
  EXPECT_EQ(diagnosed, corrupt.size() + expired.size());
}

TEST(Runner, RetryBackoffIsClampedToTheDeadlineBudget) {
  // An always-failing query with a 1000 ms base backoff and a 40 ms budget:
  // without clamping, retries would sleep for seconds past the deadline.
  // With it, the query must report kDeadlineExceeded in well under the
  // first full backoff.
  const Graph g = graph::random_gnp(16, 0.2, 7);
  RunnerOptions options;
  options.retries = 5;
  options.retry_backoff_ms = 1000;
  options.configure_query = [](std::size_t, RunOptions& run) {
    run.deadline_ms = 40;
    corrupt_at(run, corruption_site());
  };
  Runner runner(options);
  const auto start = std::chrono::steady_clock::now();
  const QueryOutcome outcome = runner.try_solve(g);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(outcome.status.code, StatusCode::kDeadlineExceeded)
      << outcome.status.to_string();
  EXPECT_LT(elapsed, 900) << "backoff slept past the deadline budget";
  EXPECT_LT(outcome.attempts, 6u) << "budget must cut the retry sequence short";
}

TEST(Runner, ExhaustedBudgetSkipsTheAttemptEntirely) {
  // Retryable failures (corruption) burn the budget across attempts and
  // backoffs; once it is spent the runner must report the exhausted budget
  // instead of launching another attempt that cannot finish.
  const Graph g = graph::random_gnp(16, 0.2, 7);
  RunnerOptions options;
  options.retries = 5;
  options.retry_backoff_ms = 50;  // clamped to the ~10 ms budget remainder
  options.configure_query = [](std::size_t, RunOptions& run) {
    run.deadline_ms = 10;
    // Instant retryable failure: the whole budget is then consumed by the
    // (clamped) backoff sleep, so the next attempt finds nothing left.
    run.sparse_before_round = [](const SparseRoundContext&) {
      throw std::runtime_error("injected transient failure");
    };
  };
  Runner runner(options);
  const QueryOutcome outcome = runner.try_solve(g);
  EXPECT_EQ(outcome.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(outcome.status.message.find("budget"), std::string::npos)
      << outcome.status.to_string();
  EXPECT_LT(outcome.attempts, 6u) << "an attempt ran with an exhausted budget";
}

TEST(Runner, BatchHonoursCertify) {
  // "Verify every result" covers the multi-query batch path too, not just
  // lone queries.
  RunnerOptions options;
  options.certify = true;
  const std::vector<Graph> graphs = {graph::random_gnp(12, 0.3, 1),
                                     graph::random_gnp(20, 0.1, 2)};
  const std::vector<QueryOutcome> outcomes =
      Runner(options).solve_batch(graphs);
  ASSERT_EQ(outcomes.size(), graphs.size());
  for (std::size_t q = 0; q < graphs.size(); ++q) {
    ASSERT_TRUE(outcomes[q].ok()) << outcomes[q].status.to_string();
    EXPECT_TRUE(outcomes[q].result.certified) << "query " << q;
    expect_matches_baseline(outcomes[q].result, graphs[q]);
  }
}

TEST(Runner, RetryStartsFreshAfterACertificateOnlyCorruption) {
  // Two paths, 0..9 and 10..19.  Attempt 1 pins vertex 15 to label 0: a
  // lattice-legal value, so the per-round monitors pass, the GSKP artifact
  // records the merged labels, and only the end-of-run certificate
  // convicts the run.  The clean retry must not resume from that artifact.
  std::vector<graph::Edge> edges;
  for (NodeId v = 0; v + 1 < 20; ++v) {
    if (v != 9) edges.push_back({v, v + 1});
  }
  const Graph g = Graph::from_edges(20, edges);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("runner_test_gskp_retry_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  fault::SparseFaultPlan plan;
  plan.add({.site = fault::SparseFaultSite::kStuckVertex,
            .round = 0,
            .vertex = 15,
            .stuck_value = 0,
            .stuck_rounds = 8});
  fault::SparseInjector injector(plan);
  std::atomic<unsigned> attempts{0};
  RunnerOptions options;
  options.retries = 1;
  options.checkpoint_dir = dir.string();
  options.configure_query = [&](std::size_t, RunOptions& run) {
    // As gcad's fault soak: every attempt certifies, the first is injected.
    run.certify = true;
    run.self_check = true;
    if (attempts.fetch_add(1) == 0) injector.install(run);
  };
  const QueryOutcome outcome = Runner(options).try_solve(g);
  std::filesystem::remove_all(dir);

  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_GT(injector.faults_fired(), 0u);
  EXPECT_FALSE(outcome.result.resumed);
  EXPECT_EQ(outcome.result.labels, graph::union_find_components(g));
}

TEST(Runner, LoneAutoQueryEmitsOneLinkStep) {
  // A lone kAuto query runs the one-lane link pass whatever the pool
  // width: one "link" step, through try_solve and a one-query batch alike.
  RunnerOptions options;
  options.threads = 2;
  options.instrument = true;
  const Runner runner(options);
  const auto steps = [](const QueryOutcome& outcome) {
    EXPECT_TRUE(outcome.ok()) << outcome.status.to_string();
    std::vector<std::string> labels;
    for (const auto& sweep : outcome.result.sweeps) labels.push_back(sweep.label);
    return labels;
  };
  std::vector<graph::Edge> edges;
  for (NodeId v = 0; v + 1 < 4096; ++v) edges.push_back({v, v + 1});
  const graph::CsrGraph path = graph::CsrGraph::from_edges(4096, edges);
  const std::vector<std::string> link = {"link"};
  EXPECT_EQ(steps(runner.try_solve(path)), link);
  EXPECT_EQ(steps(runner.solve_batch({path.to_graph()})[0]), link);
}

TEST(Runner, OutcomesCarryElapsedTime) {
  const Graph g = graph::random_gnp(24, 0.15, 9);
  Runner runner;
  const QueryOutcome outcome = runner.try_solve(g);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.elapsed_ns, 0);
  const std::vector<QueryOutcome> outcomes = runner.solve_batch({g, g});
  for (const QueryOutcome& each : outcomes) {
    EXPECT_GT(each.elapsed_ns, 0);
  }
}

}  // namespace
}  // namespace gcalib::core
