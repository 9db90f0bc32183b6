#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "graph/io.hpp"

namespace gcalib::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_DOUBLE_EQ(g.density(), 0.0);
}

TEST(Graph, AddEdgeUpdatesBothViews) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(2, 0));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.neighbors(0), (std::vector<NodeId>{2}));
  EXPECT_EQ(g.neighbors(2), (std::vector<NodeId>{0}));
}

TEST(Graph, DuplicateEdgeReturnsFalse) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, NeighborsStaySorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(2, 1);
  EXPECT_EQ(g.neighbors(2), (std::vector<NodeId>{0, 1, 3, 4}));
}

TEST(Graph, EdgesSortedAndUnique) {
  Graph g(4);
  g.add_edge(3, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  const std::vector<Edge> edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{1, 3}));
}

TEST(Graph, FromEdgesCollapsesDuplicates) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {1, 2}, {0, 1}});
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.neighbors(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(g.neighbors(1), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(g.neighbors(2), (std::vector<NodeId>{1}));
}

TEST(Graph, FromMatrixRoundTrip) {
  // Graph -> matrix literal -> graph is the identity.
  Graph g(4);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  EXPECT_EQ(parse_matrix(format_matrix(g)), g);
}

TEST(Graph, FromEdgesMatchesIncrementalInsertion) {
  const std::vector<Edge> edges = {{4, 1}, {0, 3}, {1, 4}, {2, 0}, {3, 0},
                                   {1, 2}, {4, 0}, {2, 1}};
  Graph incremental(6);
  for (const Edge& e : edges) incremental.add_edge(e.u, e.v);
  const Graph bulk = Graph::from_edges(6, edges);
  EXPECT_EQ(bulk, incremental);
  EXPECT_EQ(bulk.edge_count(), incremental.edge_count());
  EXPECT_EQ(bulk.edges(), incremental.edges());
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
  Graph a(4);
  a.add_edge(0, 1);
  a.add_edge(2, 3);
  a.add_edge(1, 3);
  Graph b(4);
  b.add_edge(3, 1);
  b.add_edge(3, 2);
  b.add_edge(1, 0);
  EXPECT_EQ(a, b);
  b.add_edge(0, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(Graph(3), Graph(4));
  EXPECT_EQ(Graph(3), Graph::from_edges(3, {}));
}

TEST(Graph, DensityOfCompleteGraphIsOne) {
  Graph g(4);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) g.add_edge(u, v);
  }
  EXPECT_DOUBLE_EQ(g.density(), 1.0);
}

TEST(Graph, DegreeMatchesNeighborCount) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(2, 2), ContractViolation);
}

TEST(Graph, OutOfRangeRejected) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), ContractViolation);
  EXPECT_THROW((void)g.neighbors(5), ContractViolation);
}

}  // namespace
}  // namespace gcalib::graph
