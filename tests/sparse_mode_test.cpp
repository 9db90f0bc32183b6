// Sparse-mode equivalence suite (DESIGN.md §14): the link pass (kAuto)
// must produce exactly the same canonical min-node-id labeling as the
// double-buffered synchronous reference (kSync) on every graph family,
// every execution backend and every thread count, and each engine must be
// observable by its step labels.
//
// The family list targets the partitioner's worst cases: a star (all arcs
// in one row — count-equal vertex splits starve every lane but one), a
// path (maximum hook/jump round count), two cliques joined by one bridge
// (a single inter-lane arc decides the final labels), and random G(n, m)
// as the unstructured control, all checked against the union-find oracle.
// The link pass's mid-pass jumps are checked on inputs that splice enough
// to trigger them and on inputs that never do, through every input shape
// the pass reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/trace.hpp"
#include "gcad/latency.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "graph/union_find.hpp"

namespace gcalib::core {
namespace {

struct Backend {
  const char* name;
  unsigned threads;
};

// The {1, 2, 4, 7} thread matrix: 7 is deliberately not a divisor of the
// field sizes in play, so arc-chunk boundary bugs cannot hide behind even
// partitions.
const Backend kBackends[] = {
    {"sequential", 1},
    {"pool x2", 2},
    {"pool x4", 4},
    {"pool x7", 7},
};

struct Mode {
  const char* name;
  gca::SparseMode sparse_mode;
};

const Mode kModes[] = {
    {"sync", gca::SparseMode::kSync},
    {"link", gca::SparseMode::kAuto},
};

/// Two k-cliques bridged by a single edge: the whole right clique's final
/// label is decided by one arc, so a partition that mishandles exactly one
/// chunk boundary shows up as a split component.
graph::Graph two_cliques_bridge(graph::NodeId k) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId a = 0; a < k; ++a) {
    for (graph::NodeId b = a + 1; b < k; ++b) {
      edges.push_back({a, b});
      edges.push_back({k + a, k + b});
    }
  }
  edges.push_back({k - 1, k});
  return graph::Graph::from_edges(2 * k, edges);
}

std::vector<graph::NodeId> solve_with(const graph::CsrGraph& csr,
                                      const Mode& mode,
                                      const Backend& backend) {
  RunOptions options;
  options.instrument = false;
  options.threads = backend.threads;
  options.sparse_mode = mode.sparse_mode;
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
    options.sparse_mode = mode.sparse_mode;
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
    options.sparse_mode = mode.sparse_mode;
    EXPECT_NO_THROW((void)sparse_cc_solver().solve(SolverInput(csr), options))
        << mode.name;
  }
}

TEST(SparseModeEquivalence, TinyGraphsInEveryExplicitMode) {
  for (const graph::NodeId n : {0u, 1u, 2u, 3u}) {
    const graph::Graph g =
        n >= 2 ? graph::Graph::from_edges(n, {{0, 1}}) : graph::Graph(n);
    const std::vector<graph::NodeId> oracle = graph::union_find_components(g);
    const graph::CsrGraph csr = graph::CsrGraph::from_graph(g);
    for (const Mode& mode : kModes) {
      EXPECT_EQ(solve_with(csr, mode, kBackends[0]), oracle)
          << "n=" << n << " " << mode.name;
      EXPECT_EQ(solve_with(csr, mode, kBackends[1]), oracle)
          << "n=" << n << " " << mode.name;
    }
  }
}

/// The engine is observable through its steps: the link pass reports
/// exactly one "link" step at every width, through `instrument` and through
/// a sink alike; the synchronous reference emits "hook#…" / "jump#…" sweeps.
TEST(SparseModeEquivalence, AutoLinksAndSyncHooksAtEveryWidth) {
  const graph::Graph g = graph::random_gnm(256, 512, 23);
  const graph::CsrGraph csr = graph::CsrGraph::from_graph(g);
  const std::vector<graph::NodeId> oracle = graph::union_find_components(g);
  for (const unsigned threads : {1u, 4u}) {
    RunOptions options;
    options.threads = threads;
    gca::Trace trace;
    options.sink = &trace;
    options.instrument = true;

    options.sparse_mode = gca::SparseMode::kAuto;
    const QueryResult link = sparse_cc_solver().solve(SolverInput(csr), options);
    ASSERT_EQ(link.sweeps.size(), 1u) << threads;
    EXPECT_EQ(link.sweeps[0].label, "link");
    EXPECT_EQ(link.generations, 1u);
    EXPECT_EQ(link.sweeps[0].total_reads, csr.edge_count());
    EXPECT_EQ(link.sweeps[0].active_cells,
              g.node_count() - link.components);  // one link per merge
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.steps()[0].label, "link");
    EXPECT_GT(trace.steps()[0].duration_ns, 0u);
    EXPECT_EQ(link.labels, oracle);

    trace.clear();
    options.instrument = false;  // a sink alone still sees the one step
    (void)sparse_cc_solver().solve(SolverInput(csr), options);
    EXPECT_EQ(trace.size(), 1u);

    options.instrument = true;
    options.sparse_mode = gca::SparseMode::kSync;
    const QueryResult sync = sparse_cc_solver().solve(SolverInput(csr), options);
    ASSERT_GT(sync.sweeps.size(), 1u) << threads;
    EXPECT_EQ(sync.sweeps[0].label.rfind("hook#", 0), 0u);
    EXPECT_EQ(sync.sweeps[1].label.rfind("jump#", 0), 0u);
    EXPECT_EQ(sync.labels, oracle);
  }
}

/// `m` uniform endpoint pairs without self-loops, duplicates kept.
std::vector<graph::Edge> random_pairs(graph::NodeId n, std::size_t m,
                                      std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<graph::Edge> pairs;
  while (pairs.size() < m) {
    const auto u = static_cast<graph::NodeId>(rng.below(n));
    const auto v = static_cast<graph::NodeId>(rng.below(n));
    if (u != v) pairs.push_back({u, v});
  }
  return pairs;
}

/// Runs the link pass on `pairs` through each input shape it reads — a
/// `from_edges` CsrGraph's pairs (in the given order), a `from_graph`
/// CsrGraph's arcs and a `Graph`'s lists (both in row order) — checks the
/// labels against union-find and the link step's counters, and returns the
/// jumps each shape ran (cells_swept = n x (mid-pass jumps + 1)).
std::vector<std::size_t> link_jumps(graph::NodeId n,
                                    const std::vector<graph::Edge>& pairs,
                                    const std::string& name) {
  std::vector<graph::Edge> simple;
  for (const graph::Edge& e : pairs) {
    if (e.u != e.v) simple.push_back(e);
  }
  const graph::Graph g = graph::Graph::from_edges(n, simple);
  const std::vector<graph::NodeId> oracle = graph::union_find_components(g);
  const graph::CsrGraph kept = graph::CsrGraph::from_edges(n, pairs);
  const graph::CsrGraph arcs = graph::CsrGraph::from_graph(g);
  const struct {
    const char* shape;
    SolverInput input;
    std::size_t reads;
  } shapes[] = {
      {"pairs", SolverInput(kept), pairs.size()},
      {"arcs", SolverInput(arcs), g.edge_count()},
      {"lists", SolverInput(g), g.edge_count()},
  };
  std::vector<std::size_t> jumps;
  for (const auto& shape : shapes) {
    const std::string context = name + " / " + shape.shape;
    RunOptions options;
    options.instrument = true;
    const QueryResult result = sparse_cc_solver().solve(shape.input, options);
    EXPECT_EQ(result.labels, oracle) << context;
    EXPECT_EQ(result.components, graph::component_count(oracle)) << context;
    if (result.sweeps.size() != 1) {
      ADD_FAILURE() << context << ": " << result.sweeps.size() << " steps";
      jumps.push_back(0);
      continue;
    }
    const gca::GenerationStats& link = result.sweeps[0];
    EXPECT_EQ(link.label, "link") << context;
    EXPECT_EQ(link.active_cells, n - result.components) << context;
    EXPECT_EQ(link.total_reads, shape.reads) << context;
    EXPECT_EQ(link.cell_count, n) << context;
    EXPECT_EQ(link.cells_swept % n, 0u) << context;
    EXPECT_GE(link.cells_swept, n) << context;
    jumps.push_back(link.cells_swept / n - 1);
  }
  return jumps;
}

/// Inputs whose Rem splices reach the jump budget: the pass pointer-jumps
/// mid-pass (cells_swept > n) on every input shape and still labels
/// exactly like union-find.
TEST(SparseModeEquivalence, LinkPassJumpsMidPassOnSplicingInputs) {
  const graph::NodeId n = 1u << 14;
  Xoshiro256 rng(5);
  std::vector<graph::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), graph::NodeId{0});
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<graph::Edge> path;  // randomly numbered, in shuffled order
  for (graph::NodeId v = 0; v + 1 < n; ++v) path.push_back({ids[v], ids[v + 1]});
  std::shuffle(path.begin(), path.end(), rng);
  std::vector<graph::Edge> descending = random_pairs(n, 1u << 16, 9);
  std::sort(descending.begin(), descending.end(),
            [](const graph::Edge& a, const graph::Edge& b) { return b < a; });
  const struct {
    const char* name;
    std::vector<graph::Edge> pairs;
  } inputs[] = {
      {"gnm(2^14, 2^16)", random_pairs(n, 1u << 16, 3)},
      {"shuffled random path", path},
      {"descending gnm", descending},
  };
  for (const auto& input : inputs) {
    for (const std::size_t jumps : link_jumps(n, input.pairs, input.name)) {
      EXPECT_GT(jumps, 0u) << input.name;
    }
  }
}

/// Paths, stars and cliques never splice, so the pass never jumps early:
/// one jump after the last edge (cells_swept == n) on every input shape.
TEST(SparseModeEquivalence, LinkPassNeverJumpsEarlyOnPathStarAndCliques) {
  const struct {
    const char* name;
    graph::Graph g;
  } families[] = {
      {"path", graph::path(1u << 14)},
      {"star", graph::star(1u << 14)},
      {"two-cliques-bridge", two_cliques_bridge(128)},
  };
  for (const auto& family : families) {
    for (const std::size_t jumps :
         link_jumps(family.g.node_count(), family.g.edges(), family.name)) {
      EXPECT_EQ(jumps, 0u) << family.name;
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
