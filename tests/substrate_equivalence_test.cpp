// Cross-substrate equivalence suite (DESIGN.md §12): the dense paper field
// and the CSR label-propagation engine must produce the *same* canonical
// min-node-id labeling — bit-identical — on every graph, every execution
// backend and every thread count, and both must honour cancellation.
//
// The dense machine is the golden reference at sizes where an O(n^2) field
// is tractable; at the large end (n = 4096) the sparse engine is checked
// against the sequential union-find oracle, which the dense machine is
// itself validated against at the smaller sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/runner.hpp"
#include "gca/cancel.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace gcalib::core {
namespace {

struct Backend {
  const char* name;
  unsigned threads;
};

// The {1,2,4,7} thread matrix: 7 is deliberately not a divisor of typical
// field sizes, so chunk-boundary bugs cannot hide behind even partitions.
const Backend kBackends[] = {
    {"sequential", 1},
    {"pool x2", 2},
    {"pool x4", 4},
    {"pool x7", 7},
};

std::vector<graph::NodeId> solve_on(const CcSolver& solver,
                                    const graph::Graph& g,
                                    const Backend& backend) {
  RunOptions options;
  options.instrument = false;
  options.threads = backend.threads;
  return solver.solve(SolverInput(g), options).labels;
}

TEST(SubstrateEquivalence, RandomGraphsAcrossDensities) {
  // Varied density at sizes where the dense field is cheap: from nearly
  // edgeless through connected.
  const struct {
    graph::NodeId n;
    double p;
    std::uint64_t seed;
  } cases[] = {
      {2, 0.0, 1},   {17, 0.02, 2},  {33, 0.08, 3},  {64, 0.05, 4},
      {64, 0.5, 5},  {96, 0.01, 6},  {128, 0.03, 7}, {128, 0.2, 8},
      {200, 0.015, 9},
  };
  for (const auto& c : cases) {
    const graph::Graph g = graph::random_gnp(c.n, c.p, c.seed);
    const std::string tag = "n=" + std::to_string(c.n) +
                            " p=" + std::to_string(c.p) +
                            " seed=" + std::to_string(c.seed);
    const std::vector<graph::NodeId> oracle = graph::union_find_components(g);
    const std::vector<graph::NodeId> dense =
        solve_on(dense_cc_solver(), g, kBackends[0]);
    const std::vector<graph::NodeId> sparse =
        solve_on(sparse_cc_solver(), g, kBackends[0]);
    EXPECT_EQ(dense, oracle) << tag;
    EXPECT_EQ(sparse, dense) << tag;
  }
}

TEST(SubstrateEquivalence, StructuredFamilies) {
  for (const char* family : {"path", "cycle", "star", "complete", "tree",
                             "cliques:4", "planted:3:0.4", "grid:7"}) {
    const graph::Graph g = graph::make_named(family, 49, 21);
    const std::vector<graph::NodeId> dense =
        solve_on(dense_cc_solver(), g, kBackends[0]);
    const std::vector<graph::NodeId> sparse =
        solve_on(sparse_cc_solver(), g, kBackends[0]);
    EXPECT_EQ(dense, graph::union_find_components(g)) << family;
    EXPECT_EQ(sparse, dense) << family;
  }
}

TEST(SubstrateEquivalence, BitIdenticalAcrossBackendsAndThreadCounts) {
  const graph::Graph g = graph::random_gnp(173, 0.04, 31);
  const std::vector<graph::NodeId> reference =
      solve_on(sparse_cc_solver(), g, kBackends[0]);
  EXPECT_EQ(reference, graph::union_find_components(g));
  for (const Backend& backend : kBackends) {
    EXPECT_EQ(solve_on(sparse_cc_solver(), g, backend), reference)
        << "sparse on " << backend.name;
    EXPECT_EQ(solve_on(dense_cc_solver(), g, backend), reference)
        << "dense on " << backend.name;
  }
}

TEST(SubstrateEquivalence, LargeSparseGraphSequential) {
  // The n = 4096 case: far beyond the dense field's comfort zone, checked
  // against the union-find oracle (and via self_check's internal oracle).
  const graph::Graph g = graph::random_gnp(4096, 0.0008, 77);
  RunOptions options;
  options.instrument = false;
  options.self_check = true;
  const QueryResult result =
      sparse_cc_solver().solve(SolverInput(g), options);
  EXPECT_EQ(result.labels, graph::union_find_components(g));
}

TEST(SubstrateEquivalence, LargeSparseGraphParallelMatchesSequential) {
  const graph::CsrGraph csr = graph::CsrGraph::from_graph(
      graph::random_gnp(4096, 0.0008, 78));
  RunOptions sequential;
  sequential.instrument = false;
  const std::vector<graph::NodeId> reference =
      sparse_cc_solver().solve(SolverInput(csr), sequential).labels;
  for (const unsigned threads : {2u, 4u, 7u}) {
    RunOptions parallel;
    parallel.instrument = false;
    parallel.threads = threads;
    EXPECT_EQ(sparse_cc_solver().solve(SolverInput(csr), parallel).labels,
              reference)
        << threads << " threads";
  }
}

TEST(SubstrateEquivalence, RunnerRoutesBothSubstratesToTheSameLabels) {
  // The Runner runs the CSR engine; the field is reached by name.  Both
  // must agree on the labeling of the same graph.
  const graph::Graph g = graph::random_gnp(90, 0.05, 13);
  const QueryResult via_dense =
      dense_cc_solver().solve(SolverInput(g), RunOptions{});
  const QueryResult via_sparse = Runner().solve(g);
  EXPECT_EQ(via_dense.labels, via_sparse.labels);
  EXPECT_EQ(via_dense.components, via_sparse.components);
}

TEST(SubstrateEquivalence, PreTrippedCancellationAbortsBothSubstrates) {
  const graph::Graph g = graph::random_gnp(128, 0.05, 5);
  gca::CancelToken token;
  token.request_cancel();
  RunOptions options;
  options.instrument = false;
  options.cancel = &token;
  EXPECT_THROW((void)dense_cc_solver().solve(SolverInput(g), options),
               gca::Cancelled);
  EXPECT_THROW((void)sparse_cc_solver().solve(SolverInput(g), options),
               gca::Cancelled);
}

TEST(SubstrateEquivalence, MidRunCancellationIsHonouredOrHarmless) {
  // Trip the token from a second thread while the solve is in flight.  The
  // race is inherent — the solve may finish first — so both outcomes are
  // accepted, but a cancelled run must abort via gca::Cancelled and a
  // completed run must still be correct.  Over the seed sweep at this size
  // the cancel lands mid-run virtually always on at least one seed.
  const struct {
    const CcSolver* solver;
    graph::NodeId n;
    double p;
  } cases[] = {
      // Dense at a size the field still solves in tens of milliseconds;
      // sparse at the scale it is built for.
      {&dense_cc_solver(), 192, 0.03},
      {&sparse_cc_solver(), 2048, 0.002},
  };
  for (const std::uint64_t seed : {101u, 102u, 103u}) {
    for (const auto& c : cases) {
      const graph::Graph g = graph::random_gnp(c.n, c.p, seed);
      const std::vector<graph::NodeId> oracle =
          graph::union_find_components(g);
      gca::CancelToken token;
      RunOptions options;
      options.instrument = false;
      options.cancel = &token;
      std::atomic<bool> go{false};
      std::thread tripper([&] {
        while (!go.load(std::memory_order_acquire)) {}
        token.request_cancel();
      });
      bool cancelled = false;
      std::vector<graph::NodeId> labels;
      try {
        go.store(true, std::memory_order_release);
        labels = c.solver->solve(SolverInput(g), options).labels;
      } catch (const gca::Cancelled&) {
        cancelled = true;
      }
      tripper.join();
      if (!cancelled) {
        EXPECT_EQ(labels, oracle) << c.solver->name() << " seed " << seed;
      }
    }
  }
}

TEST(SubstrateEquivalence, SelfCheckPassesOnBothSubstrates) {
  const graph::Graph g = graph::random_gnp(64, 0.1, 17);
  RunOptions options;
  options.self_check = true;
  EXPECT_NO_THROW((void)dense_cc_solver().solve(SolverInput(g), options));
  EXPECT_NO_THROW((void)sparse_cc_solver().solve(SolverInput(g), options));
}

}  // namespace
}  // namespace gcalib::core
