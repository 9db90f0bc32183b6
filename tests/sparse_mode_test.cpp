// Sparse-mode equivalence suite (DESIGN.md §14): the concurrent CAS-min
// labeling path (async, with and without frontier worklists) must produce
// exactly the same canonical min-node-id labeling as the double-buffered
// synchronous reference on every graph family, every execution backend and
// every thread count — and must honour cancellation mid-flight.
//
// The family list targets the partitioner's worst cases: a star (all arcs
// in one row — count-equal vertex splits starve every lane but one), a
// path (maximum hook/jump round count), two cliques joined by one bridge
// (a single inter-lane arc decides the final labels), and random G(n, m)
// as the unstructured control, all checked against the union-find oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/cancel.hpp"
#include "gcad/latency.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace gcalib::core {
namespace {

struct Backend {
  const char* name;
  gca::ExecutionPolicy policy;
  unsigned threads;
};

// The {1, 2, 4, 7} thread matrix: 7 is deliberately not a divisor of the
// field sizes in play, so arc-chunk boundary bugs cannot hide behind even
// partitions.
const Backend kBackends[] = {
    {"sequential", gca::ExecutionPolicy::kSequential, 1},
    {"spawn x2", gca::ExecutionPolicy::kSpawn, 2},
    {"spawn x4", gca::ExecutionPolicy::kSpawn, 4},
    {"spawn x7", gca::ExecutionPolicy::kSpawn, 7},
    {"pool x2", gca::ExecutionPolicy::kPool, 2},
    {"pool x4", gca::ExecutionPolicy::kPool, 4},
    {"pool x7", gca::ExecutionPolicy::kPool, 7},
};

struct Mode {
  const char* name;
  gca::SparseMode sparse_mode;
  double sparse_frontier;
};

// sparse_frontier = 0 disables worklists entirely (every async round is a
// full arc sweep); 1.0 switches to the frontier sweep as soon as round 0
// completes.  Covering both extremes plus sync covers every code path.
const Mode kModes[] = {
    {"sync", gca::SparseMode::kSync, 0.35},
    {"async dense", gca::SparseMode::kAsync, 0.0},
    {"async frontier", gca::SparseMode::kAsync, 1.0},
};

/// Two k-cliques bridged by a single edge: the whole right clique's final
/// label is decided by one arc, so a partition that mishandles exactly one
/// chunk boundary shows up as a split component.
graph::Graph two_cliques_bridge(graph::NodeId k) {
  graph::Graph g(2 * k);
  for (graph::NodeId a = 0; a < k; ++a) {
    for (graph::NodeId b = a + 1; b < k; ++b) {
      g.add_edge(a, b);
      g.add_edge(k + a, k + b);
    }
  }
  g.add_edge(k - 1, k);
  return g;
}

std::vector<graph::NodeId> solve_with(const graph::CsrGraph& csr,
                                      const Mode& mode,
                                      const Backend& backend) {
  RunOptions options;
  options.instrument = false;
  options.threads = backend.threads;
  options.policy = backend.policy;
  options.sparse_mode = mode.sparse_mode;
  options.sparse_frontier = mode.sparse_frontier;
  return sparse_cc_solver().solve(SolverInput(csr), options).labels;
}

TEST(SparseModeEquivalence, AllModesMatchOracleOnEveryFamilyAndBackend) {
  const struct {
    const char* name;
    graph::Graph g;
  } families[] = {
      {"star", graph::star(2049)},
      {"path", graph::make_named("path", 2048, 0)},
      {"two-cliques-bridge", two_cliques_bridge(40)},
      {"gnm", graph::random_gnm(3072, 6144, 91)},
  };
  for (const auto& family : families) {
    const graph::CsrGraph csr = graph::CsrGraph::from_graph(family.g);
    const std::vector<graph::NodeId> oracle =
        graph::union_find_components(family.g);
    for (const Mode& mode : kModes) {
      for (const Backend& backend : kBackends) {
        EXPECT_EQ(solve_with(csr, mode, backend), oracle)
            << family.name << " / " << mode.name << " / " << backend.name;
      }
    }
  }
}

TEST(SparseModeEquivalence, ComponentCountsAgreeWithTheOracle) {
  const graph::Graph g = graph::random_gnm(2048, 1024, 7);  // many components
  const graph::CsrGraph csr = graph::CsrGraph::from_graph(g);
  graph::UnionFind oracle(g.node_count());
  for (const auto& [u, v] : g.edges()) oracle.unite(u, v);
  for (const Mode& mode : kModes) {
    RunOptions options;
    options.instrument = false;
    options.threads = 4;
    options.policy = gca::ExecutionPolicy::kPool;
    options.sparse_mode = mode.sparse_mode;
    options.sparse_frontier = mode.sparse_frontier;
    const QueryResult result = sparse_cc_solver().solve(SolverInput(csr), options);
    EXPECT_EQ(result.components, oracle.set_count()) << mode.name;
  }
}

TEST(SparseModeEquivalence, SelfCheckPassesInEveryMode) {
  const graph::CsrGraph csr =
      graph::CsrGraph::from_graph(graph::random_gnm(512, 1024, 17));
  for (const Mode& mode : kModes) {
    RunOptions options;
    options.self_check = true;
    options.threads = 4;
    options.policy = gca::ExecutionPolicy::kPool;
    options.sparse_mode = mode.sparse_mode;
    options.sparse_frontier = mode.sparse_frontier;
    EXPECT_NO_THROW((void)sparse_cc_solver().solve(SolverInput(csr), options))
        << mode.name;
  }
}

TEST(SparseModeEquivalence, TinyGraphsInEveryExplicitMode) {
  for (const graph::NodeId n : {0u, 1u, 2u, 3u}) {
    graph::Graph g(n);
    if (n >= 2) g.add_edge(0, 1);
    const std::vector<graph::NodeId> oracle = graph::union_find_components(g);
    const graph::CsrGraph csr = graph::CsrGraph::from_graph(g);
    for (const Mode& mode : kModes) {
      EXPECT_EQ(solve_with(csr, mode, kBackends[0]), oracle)
          << "n=" << n << " " << mode.name;
      EXPECT_EQ(solve_with(csr, mode, kBackends[4]), oracle)
          << "n=" << n << " " << mode.name;
    }
  }
}

/// kAuto is observable through instrumentation: the synchronous reference
/// emits "hook#…" sweeps, the concurrent path emits "cas-hook#…".
TEST(SparseModeEquivalence, AutoPicksSyncSequentiallyAndAsyncInParallel) {
  const graph::CsrGraph csr =
      graph::CsrGraph::from_graph(graph::random_gnm(256, 512, 23));

  RunOptions sequential;
  sequential.instrument = true;
  sequential.sparse_mode = gca::SparseMode::kAuto;
  const QueryResult seq_result =
      sparse_cc_solver().solve(SolverInput(csr), sequential);
  ASSERT_FALSE(seq_result.sweeps.empty());
  EXPECT_EQ(seq_result.sweeps[0].label.rfind("hook#", 0), 0u);

  RunOptions parallel;
  parallel.instrument = true;
  parallel.sparse_mode = gca::SparseMode::kAuto;
  parallel.threads = 4;
  parallel.policy = gca::ExecutionPolicy::kPool;
  const QueryResult par_result =
      sparse_cc_solver().solve(SolverInput(csr), parallel);
  ASSERT_FALSE(par_result.sweeps.empty());
  EXPECT_EQ(par_result.sweeps[0].label.rfind("cas-hook#", 0), 0u);
  EXPECT_EQ(par_result.labels, seq_result.labels);
}

TEST(SparseModeEquivalence, FrontierRoundsActivateOnlyWhenEnabled) {
  // Whether a given round's change count clears the frontier threshold
  // depends on the CAS interleaving, so this runs the async path on the
  // *sequential* backend — one lane is deterministic: a path cascades to
  // its minimum in round 0 (n - 1 changes <= n), making round 1 a frontier
  // round exactly when worklists are enabled.
  const graph::CsrGraph csr =
      graph::CsrGraph::from_graph(graph::make_named("path", 1024, 0));
  const auto count_frontier_sweeps = [&](double fraction) {
    RunOptions options;
    options.instrument = true;
    options.sparse_mode = gca::SparseMode::kAsync;
    options.sparse_frontier = fraction;
    const QueryResult result =
        sparse_cc_solver().solve(SolverInput(csr), options);
    std::size_t frontier_sweeps = 0;
    for (const auto& sweep : result.sweeps) {
      if (sweep.label.rfind("cas-hook-frontier#", 0) == 0) ++frontier_sweeps;
    }
    return frontier_sweeps;
  };
  EXPECT_GT(count_frontier_sweeps(1.0), 0u);
  EXPECT_EQ(count_frontier_sweeps(0.0), 0u);
}

TEST(SparseAsyncCancel, PreTrippedTokenAbortsBeforeAnyWork) {
  const graph::CsrGraph csr =
      graph::CsrGraph::from_graph(graph::random_gnm(1024, 2048, 3));
  gca::CancelToken token;
  token.request_cancel();
  RunOptions options;
  options.instrument = false;
  options.cancel = &token;
  options.threads = 4;
  options.policy = gca::ExecutionPolicy::kPool;
  options.sparse_mode = gca::SparseMode::kAsync;
  EXPECT_THROW((void)sparse_cc_solver().solve(SolverInput(csr), options),
               gca::Cancelled);
}

TEST(SparseAsyncCancel, MidRunCancellationIsHonouredOrHarmless) {
  // Trip the token from a second thread while the async solve is in
  // flight.  The race is inherent — the solve may finish first — so both
  // outcomes are accepted, but a cancelled run must abort via
  // gca::Cancelled (within the ~4096-arc poll budget) and a completed run
  // must still match the oracle exactly.
  for (const std::uint64_t seed : {201u, 202u, 203u}) {
    const graph::Graph g = graph::random_gnm(4096, 8192, seed);
    const std::vector<graph::NodeId> oracle = graph::union_find_components(g);
    const graph::CsrGraph csr = graph::CsrGraph::from_graph(g);
    for (const double fraction : {0.0, 1.0}) {
      gca::CancelToken token;
      RunOptions options;
      options.instrument = false;
      options.cancel = &token;
      options.threads = 4;
      options.policy = gca::ExecutionPolicy::kPool;
      options.sparse_mode = gca::SparseMode::kAsync;
      options.sparse_frontier = fraction;
      std::atomic<bool> go{false};
      std::thread tripper([&] {
        while (!go.load(std::memory_order_acquire)) {}
        token.request_cancel();
      });
      bool cancelled = false;
      std::vector<graph::NodeId> labels;
      try {
        go.store(true, std::memory_order_release);
        labels = sparse_cc_solver().solve(SolverInput(csr), options).labels;
      } catch (const gca::Cancelled&) {
        cancelled = true;
      }
      tripper.join();
      if (!cancelled) {
        EXPECT_EQ(labels, oracle)
            << "seed " << seed << " frontier " << fraction;
      }
    }
  }
}

TEST(SparseModeRouting, ColdSparseEstimatesScaleWithSolverThreads) {
  using gcad::LatencyModel;
  EXPECT_DOUBLE_EQ(LatencyModel::effective_parallelism(1), 1.0);
  EXPECT_DOUBLE_EQ(LatencyModel::effective_parallelism(8), 4.5);

  LatencyModel single;
  LatencyModel parallel;
  parallel.set_solver_threads(8);
  const std::uint32_t n = 4096;
  const std::size_t m = 8192;
  const std::int64_t cold_single = single.estimate_ns(n, m);
  const std::int64_t cold_parallel = parallel.estimate_ns(n, m);
  // Cold estimates divide by the effective parallelism…
  EXPECT_NEAR(static_cast<double>(cold_single) /
                  static_cast<double>(cold_parallel),
              LatencyModel::effective_parallelism(8), 0.01);
  // …and warm estimates are learned from observed (already-parallel) wall
  // times, so they are not scaled again.
  single.record(n, m, 5'000'000);
  parallel.record(n, m, 5'000'000);
  EXPECT_EQ(single.estimate_ns(n, m), parallel.estimate_ns(n, m));
}

}  // namespace
}  // namespace gcalib::core
