#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace gcalib::graph {
namespace {

std::vector<NodeId> row(const Graph& g, NodeId u) {
  const auto r = g.neighbors(u);
  return {r.begin(), r.end()};
}

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_DOUBLE_EQ(g.density(), 0.0);
}

TEST(Graph, AnEdgeAppearsInBothRows) {
  const Graph g = Graph::from_edges(4, {{2, 0}});
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{2}));
  EXPECT_EQ(row(g, 2), (std::vector<NodeId>{0}));
  EXPECT_EQ(g.offsets(), (std::vector<std::size_t>{0, 1, 1, 2, 2}));
  EXPECT_EQ(g.arcs(), (std::vector<NodeId>{2, 0}));
}

TEST(Graph, DuplicateEdgeCountsOnce) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}});
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.arcs().size(), 2u);
}

TEST(Graph, NeighborsStaySorted) {
  const Graph g = Graph::from_edges(5, {{2, 4}, {2, 0}, {3, 2}, {2, 1}});
  EXPECT_EQ(row(g, 2), (std::vector<NodeId>{0, 1, 3, 4}));
}

TEST(Graph, EdgesSortedAndUnique) {
  const Graph g = Graph::from_edges(4, {{3, 1}, {0, 2}, {0, 1}, {1, 3}});
  const std::vector<Edge> edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{1, 3}));
}

TEST(Graph, FromEdgesCollapsesDuplicates) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {1, 2}, {0, 1}});
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(row(g, 1), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(row(g, 2), (std::vector<NodeId>{1}));
}

TEST(Graph, FromMatrixRoundTrip) {
  // Graph -> matrix literal -> graph is the identity.
  const Graph g = Graph::from_edges(4, {{0, 3}, {1, 2}});
  EXPECT_EQ(parse_matrix(format_matrix(g)), g);
}

/// Random pair lists (unsorted, duplicated in both orientations, with
/// isolated vertices, n = 1 included) against a std::set of normalised
/// pairs: every accessor must say what the set says.
TEST(Graph, FromEdgesMatchesASetReference) {
  Xoshiro256 rng(20261020);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<NodeId>(1 + rng.below(trial < 20 ? 3 : 40));
    // Endpoints come from the first `used` ids only, so the rest stay
    // isolated.
    const auto used = static_cast<NodeId>(1 + rng.below(n));
    std::vector<Edge> pairs;
    std::set<std::pair<NodeId, NodeId>> want;
    const std::size_t draws =
        used < 2 ? 0 : rng.below(3 * std::size_t{used} + 1);
    for (std::size_t i = 0; i < draws; ++i) {
      const auto u = static_cast<NodeId>(rng.below(used));
      const auto v = static_cast<NodeId>(rng.below(used));
      if (u == v) continue;
      pairs.push_back({u, v});
      if (rng.below(4) == 0) pairs.push_back({v, u});  // reversed duplicate
      if (rng.below(6) == 0) pairs.push_back({u, v});  // same-way duplicate
      want.insert({std::min(u, v), std::max(u, v)});
    }
    for (std::size_t i = pairs.size(); i > 1; --i) {
      std::swap(pairs[i - 1], pairs[rng.below(i)]);
    }
    const Graph g = Graph::from_edges(n, pairs);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n));

    ASSERT_EQ(g.node_count(), n);
    EXPECT_EQ(g.edge_count(), want.size());
    std::vector<Edge> want_edges;
    for (const auto& [u, v] : want) want_edges.push_back({u, v});
    EXPECT_EQ(g.edges(), want_edges);
    for (NodeId u = 0; u < n; ++u) {
      std::vector<NodeId> want_row;
      for (NodeId v = 0; v < n; ++v) {
        const bool edge = want.count({std::min(u, v), std::max(u, v)}) != 0;
        EXPECT_EQ(g.has_edge(u, v), edge) << u << "," << v;
        if (edge) want_row.push_back(v);
      }
      EXPECT_EQ(row(g, u), want_row) << "row " << u;
      EXPECT_EQ(g.degree(u), want_row.size()) << "row " << u;
    }
    // Equal to the graph of the reference's own pairs, whatever the order;
    // unequal once an edge is missing or the node count differs.
    EXPECT_EQ(g, Graph::from_edges(n, want_edges));
    EXPECT_NE(g, Graph::from_edges(n + 1, want_edges));
    if (!want_edges.empty()) {
      want_edges.pop_back();
      EXPECT_NE(g, Graph::from_edges(n, want_edges));
    }
  }
}

/// The flat graph and the CSR share one layout: copying a generated
/// graph's arrays gives what the CSR builds from its edge list.
TEST(Graph, CsrFromGraphEqualsCsrFromItsEdgesForEveryFamily) {
  for (const std::string& spec : named_families()) {
    const std::string family = spec.substr(0, spec.find(':'));
    const Graph g = make_named(family, 24, 5);
    EXPECT_EQ(CsrGraph::from_graph(g), CsrGraph::from_edges(24, g.edges()))
        << family;
    EXPECT_EQ(CsrGraph::from_graph(g).to_graph(), g) << family;
  }
}

TEST(Graph, FromEdgesRejectsSelfLoopsAndOutOfRangeEndpoints) {
  EXPECT_THROW((void)Graph::from_edges(3, {{0, 1}, {2, 2}}), ContractViolation);
  EXPECT_THROW((void)Graph::from_edges(3, {{0, 3}}), ContractViolation);
  EXPECT_THROW((void)Graph::from_edges(3, {{7, 1}}), ContractViolation);
  EXPECT_EQ(Graph::from_edges(0, {}).node_count(), 0u);
}

TEST(Graph, HasEdgeIsSymmetricAndChecksItsRange) {
  const Graph g = Graph::from_edges(5, {{0, 4}, {1, 3}, {3, 4}});
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(g.has_edge(u, v), g.has_edge(v, u)) << u << "," << v;
    }
    EXPECT_FALSE(g.has_edge(u, u));
  }
  EXPECT_TRUE(g.has_edge(4, 0));
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_THROW((void)g.has_edge(5, 0), ContractViolation);
  EXPECT_THROW((void)g.has_edge(0, 5), ContractViolation);
}

TEST(Graph, EqualityIgnoresInsertionOrder) {
  const Graph a = Graph::from_edges(4, {{0, 1}, {2, 3}, {1, 3}});
  const Graph b = Graph::from_edges(4, {{3, 1}, {3, 2}, {1, 0}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Graph::from_edges(4, {{3, 1}, {3, 2}, {1, 0}, {0, 2}}));
  EXPECT_NE(Graph(3), Graph(4));
  EXPECT_EQ(Graph(3), Graph::from_edges(3, {}));
  EXPECT_EQ(Graph(), Graph::from_edges(0, {}));
}

TEST(Graph, DensityOfCompleteGraphIsOne) {
  const Graph g =
      Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_DOUBLE_EQ(g.density(), 1.0);
}

TEST(Graph, DegreeMatchesNeighborCount) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}});
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW((void)Graph::from_edges(3, {{2, 2}}), ContractViolation);
}

TEST(Graph, OutOfRangeRejected) {
  EXPECT_THROW((void)Graph::from_edges(3, {{0, 3}}), ContractViolation);
  const Graph g(3);
  EXPECT_THROW((void)g.neighbors(5), ContractViolation);
  EXPECT_THROW((void)g.degree(3), ContractViolation);
}

}  // namespace
}  // namespace gcalib::graph
