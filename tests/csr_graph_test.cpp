#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace gcalib::graph {
namespace {

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph csr;
  EXPECT_EQ(csr.node_count(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
  EXPECT_EQ(csr.offsets().size(), 1u);
  EXPECT_DOUBLE_EQ(csr.density(), 0.0);
}

TEST(CsrGraph, FromGraphMatchesAdjacency) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  const CsrGraph csr = CsrGraph::from_graph(g);
  ASSERT_EQ(csr.node_count(), 5u);
  EXPECT_EQ(csr.edge_count(), 4u);
  for (NodeId u = 0; u < 5; ++u) {
    const auto row = csr.neighbors(u);
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < 5; ++v) {
      if (g.has_edge(u, v)) expected.push_back(v);
    }
    EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), expected)
        << "row " << u;
    EXPECT_EQ(csr.degree(u), expected.size());
  }
}

TEST(CsrGraph, RowsAreSortedAndArcCountIsTwiceEdges) {
  const Graph g = random_gnp(64, 0.2, 99);
  const CsrGraph csr = CsrGraph::from_graph(g);
  std::size_t arcs = 0;
  for (NodeId u = 0; u < csr.node_count(); ++u) {
    const auto row = csr.neighbors(u);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    arcs += row.size();
  }
  EXPECT_EQ(arcs, 2 * csr.edge_count());
  EXPECT_EQ(arcs, csr.arcs().size());
  EXPECT_EQ(csr.edge_count(), g.edge_count());
}

TEST(CsrGraph, FromEdgesDropsSelfLoopsAndDuplicates) {
  const std::vector<Edge> edges = {
      {0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}, {2, 1}};
  const CsrGraph csr = CsrGraph::from_edges(3, edges);
  EXPECT_EQ(csr.edge_count(), 2u);  // {0,1} and {1,2}
  EXPECT_EQ(csr.degree(0), 1u);
  EXPECT_EQ(csr.degree(1), 2u);
  EXPECT_EQ(csr.degree(2), 1u);
}

TEST(CsrGraph, FromEdgesRejectsOutOfRangeEndpoint) {
  EXPECT_THROW((void)CsrGraph::from_edges(3, {{0, 3}}), ContractViolation);
  EXPECT_THROW((void)CsrGraph::from_edges(2, {{5, 0}}), ContractViolation);
}

TEST(CsrGraph, RoundTripsThroughDenseGraph) {
  const Graph g = random_gnp(48, 0.15, 7);
  const CsrGraph csr = CsrGraph::from_graph(g);
  const Graph back = csr.to_graph();
  EXPECT_EQ(back.node_count(), g.node_count());
  EXPECT_EQ(back.edge_count(), g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(back.has_edge(u, v), g.has_edge(u, v));
    }
  }
  EXPECT_EQ(CsrGraph::from_graph(back), csr);
}

TEST(CsrGraph, EqualityComparesStructure) {
  const CsrGraph a =
      CsrGraph::from_graph(Graph::from_edges(4, {{0, 1}, {2, 3}}));
  const CsrGraph b = CsrGraph::from_edges(4, {{2, 3}, {0, 1}});
  EXPECT_EQ(a, b);
  EXPECT_NE(
      CsrGraph::from_graph(Graph::from_edges(4, {{0, 1}, {2, 3}, {1, 2}})), a);
}

TEST(CsrGraph, DensityMatchesDenseGraph) {
  const Graph g = random_gnp(32, 0.3, 3);
  const CsrGraph csr = CsrGraph::from_graph(g);
  EXPECT_DOUBLE_EQ(csr.density(), g.density());
}

TEST(CsrGraph, IsolatedVerticesHaveEmptyRows) {
  const CsrGraph csr = CsrGraph::from_edges(6, {{1, 4}});
  EXPECT_EQ(csr.degree(0), 0u);
  EXPECT_EQ(csr.degree(5), 0u);
  EXPECT_TRUE(csr.neighbors(0).empty());
  EXPECT_EQ(csr.offsets().size(), 7u);
}

/// A valid partition: parts + 1 boundaries, first 0, last n, monotone
/// non-decreasing, interior boundaries on a kLineVertices grain.
void expect_valid_boundaries(const CsrGraph& csr,
                             const std::vector<NodeId>& bounds,
                             unsigned parts) {
  ASSERT_EQ(bounds.size(), std::size_t{parts} + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), csr.node_count());
  for (unsigned k = 0; k < parts; ++k) {
    EXPECT_LE(bounds[k], bounds[k + 1]) << "k=" << k;
  }
  for (unsigned k = 1; k < parts; ++k) {
    if (bounds[k] < csr.node_count()) {
      EXPECT_EQ(bounds[k] % CsrGraph::kLineVertices, 0u) << "k=" << k;
    }
  }
}

TEST(CsrGraph, EdgeBalancedBoundariesBalanceAStarGraph) {
  // Every arc of star(n) sits in the hub's row plus one per leaf; a
  // count-equal vertex split puts the hub's n-1 arcs in lane 0 alongside a
  // quarter of the leaves.  The degree-prefix split must instead spread
  // the leaf rows so no lane carries much more than 2m / parts arcs.
  const CsrGraph csr = CsrGraph::from_graph(star(1025));
  const unsigned parts = 4;
  const std::vector<NodeId> bounds = csr.edge_balanced_boundaries(parts);
  expect_valid_boundaries(csr, bounds, parts);
  const std::size_t total_arcs = csr.offsets().back();
  for (unsigned k = 0; k < parts; ++k) {
    const std::size_t arcs_in_lane =
        csr.offsets()[bounds[k + 1]] - csr.offsets()[bounds[k]];
    // The hub row (n - 1 arcs, ~half of all arcs) is indivisible by a
    // vertex partition, so the bound is hub + one balanced share + the
    // alignment slack, not a perfect 2m / parts.
    EXPECT_LE(arcs_in_lane,
              (total_arcs + 1) / 2 + total_arcs / parts +
                  2 * CsrGraph::kLineVertices)
        << "lane " << k;
  }
}

TEST(CsrGraph, EdgeBalancedBoundariesSplitUniformDegreesEvenly) {
  const CsrGraph csr = CsrGraph::from_graph(make_named("cycle", 640, 0));
  for (const unsigned parts : {1u, 2u, 3u, 5u, 8u}) {
    const std::vector<NodeId> bounds = csr.edge_balanced_boundaries(parts);
    expect_valid_boundaries(csr, bounds, parts);
    const std::size_t total_arcs = csr.offsets().back();
    for (unsigned k = 0; k < parts; ++k) {
      const std::size_t arcs_in_lane =
          csr.offsets()[bounds[k + 1]] - csr.offsets()[bounds[k]];
      EXPECT_LE(arcs_in_lane,
                total_arcs / parts + 2 * 2 * CsrGraph::kLineVertices)
          << parts << " parts, lane " << k;
    }
  }
}

TEST(CsrGraph, EdgeBalancedBoundariesHandleDegenerateShapes) {
  // More parts than vertices: trailing parts collapse to empty ranges.
  const CsrGraph tiny = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  expect_valid_boundaries(tiny, tiny.edge_balanced_boundaries(8), 8);
  // Edge-less graph: every boundary lands on a grain multiple of n.
  const CsrGraph empty_edges = CsrGraph::from_graph(Graph(64));
  expect_valid_boundaries(empty_edges, empty_edges.edge_balanced_boundaries(4),
                          4);
  // Empty graph.
  const CsrGraph empty;
  const std::vector<NodeId> bounds = empty.edge_balanced_boundaries(3);
  ASSERT_EQ(bounds.size(), 4u);
  for (const NodeId b : bounds) EXPECT_EQ(b, 0u);
}

TEST(CsrGraph, EdgeBalancedBoundariesCoverEveryArcExactlyOnce) {
  const CsrGraph csr = CsrGraph::from_graph(random_gnp(333, 0.05, 11));
  for (const unsigned parts : {2u, 7u}) {
    const std::vector<NodeId> bounds = csr.edge_balanced_boundaries(parts);
    expect_valid_boundaries(csr, bounds, parts);
    std::size_t covered = 0;
    for (unsigned k = 0; k < parts; ++k) {
      covered += csr.offsets()[bounds[k + 1]] - csr.offsets()[bounds[k]];
    }
    EXPECT_EQ(covered, csr.offsets().back()) << parts << " parts";
  }
}

/// Random pairs over n vertices with self-loops, duplicates and both
/// orientations — raw input the way callers hand it to `from_edges`.
std::vector<Edge> raw_pairs(NodeId n, std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    edges.push_back({u, v});
    if (i % 7 == 0) edges.push_back({v, u});
  }
  edges.push_back({3, 3});
  return edges;
}

/// The eager reference: the same edges through `Graph::from_edges`, which
/// refuses self-loops, so they are dropped first.
CsrGraph eager(NodeId n, const std::vector<Edge>& edges) {
  std::vector<Edge> simple;
  for (const Edge& e : edges) {
    if (e.u != e.v) simple.push_back(e);
  }
  return CsrGraph::from_graph(Graph::from_edges(n, simple));
}

TEST(CsrGraph, EachLazyAccessorMatchesTheEagerBuild) {
  const NodeId n = 300;
  const std::vector<Edge> edges = raw_pairs(n, 900, 41);
  const CsrGraph want = eager(n, edges);
  // A fresh graph per accessor, so each one is the first to ask.
  const auto fresh = [&] { return CsrGraph::from_edges(n, edges); };
  EXPECT_EQ(fresh().node_count(), n);
  EXPECT_EQ(fresh().edge_count(), want.edge_count());
  EXPECT_EQ(fresh().degree(5), want.degree(5));
  const CsrGraph rows = fresh();
  const auto row = rows.neighbors(7);
  const auto want_row = want.neighbors(7);
  EXPECT_TRUE(std::equal(row.begin(), row.end(), want_row.begin(),
                         want_row.end()));
  EXPECT_EQ(fresh().offsets(), want.offsets());
  EXPECT_EQ(fresh().arcs(), want.arcs());
  EXPECT_DOUBLE_EQ(fresh().density(), want.density());
  EXPECT_EQ(fresh().edge_balanced_boundaries(3),
            want.edge_balanced_boundaries(3));
  EXPECT_EQ(fresh().content_hash(), want.content_hash());
  EXPECT_EQ(fresh().to_graph(), want.to_graph());
  EXPECT_EQ(fresh(), want);  // an unbuilt graph against a built one
  EXPECT_EQ(want, fresh());
}

TEST(CsrGraph, KeepsInputPairsAsGivenOnlyFromEdges) {
  const std::vector<Edge> edges = {{2, 1}, {1, 2}, {0, 0}, {3, 0}};
  const CsrGraph kept = CsrGraph::from_edges(4, edges);
  ASSERT_NE(kept.input_pairs(), nullptr);
  EXPECT_EQ(*kept.input_pairs(), edges);  // order, orientation, loop, duplicate
  EXPECT_EQ(CsrGraph::from_graph(Graph::from_edges(4, {{2, 1}, {3, 0}}))
                .input_pairs(),
            nullptr);
}

TEST(CsrGraph, CopiesAndMovesWorkBeforeAndAfterTheBuild) {
  const std::vector<Edge> edges = raw_pairs(64, 150, 9);
  const CsrGraph want = eager(64, edges);

  const CsrGraph original = CsrGraph::from_edges(64, edges);
  const CsrGraph copy_before = original;  // neither side built yet
  CsrGraph moved_before = CsrGraph::from_edges(64, edges);
  const CsrGraph moved_to_before = std::move(moved_before);
  EXPECT_EQ(copy_before, want);
  EXPECT_EQ(moved_to_before, want);
  EXPECT_EQ(original, want);

  CsrGraph built = CsrGraph::from_edges(64, edges);
  (void)built.arcs();
  const CsrGraph copy_after = built;
  const CsrGraph moved_to_after = std::move(built);
  EXPECT_EQ(copy_after, want);
  EXPECT_EQ(moved_to_after, want);

  CsrGraph assigned;
  assigned = copy_after;
  EXPECT_EQ(assigned, want);
  assigned = CsrGraph::from_edges(64, edges);
  EXPECT_EQ(assigned, want);
}

TEST(CsrGraph, ConcurrentFirstAccessesBuildOnce) {
  const NodeId n = 4096;
  const std::vector<Edge> edges = raw_pairs(n, 3 * n, 17);
  const CsrGraph want = eager(n, edges);
  const CsrGraph shared = CsrGraph::from_edges(n, edges);
  const CsrGraph copy = shared;  // copies share the one build
  std::vector<std::size_t> arcs_seen(8, 0);
  std::vector<std::thread> racers;
  for (std::size_t t = 0; t < arcs_seen.size(); ++t) {
    racers.emplace_back([&, t] {
      const CsrGraph& g = t % 2 == 0 ? shared : copy;
      std::size_t arcs = 0;
      for (NodeId u = 0; u < n; ++u) arcs += g.neighbors(u).size();
      arcs_seen[t] = arcs;
    });
  }
  for (std::thread& racer : racers) racer.join();
  for (const std::size_t arcs : arcs_seen) EXPECT_EQ(arcs, want.arcs().size());
  EXPECT_EQ(shared, want);
  EXPECT_EQ(copy, want);
}

}  // namespace
}  // namespace gcalib::graph
