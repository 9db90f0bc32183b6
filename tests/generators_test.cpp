#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/cc_baselines.hpp"
#include "graph/labeling.hpp"

namespace gcalib::graph {
namespace {

TEST(Generators, PathStructure) {
  const Graph g = path(5);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(component_count(bfs_components(g)), 1u);
}

TEST(Generators, PathOfOneAndZero) {
  EXPECT_EQ(path(1).edge_count(), 0u);
  EXPECT_EQ(path(0).node_count(), 0u);
}

TEST(Generators, CycleStructure) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.edge_count(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, StarStructure) {
  const Graph g = star(7);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  for (NodeId v = 1; v < 7; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Generators, CompleteStructure) {
  const Graph g = complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_DOUBLE_EQ(g.density(), 1.0);
}

TEST(Generators, GridStructure) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  // 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8
  EXPECT_EQ(g.edge_count(), 17u);
  EXPECT_EQ(component_count(bfs_components(g)), 1u);
}

TEST(Generators, GnpExtremes) {
  EXPECT_EQ(random_gnp(10, 0.0, 1).edge_count(), 0u);
  EXPECT_EQ(random_gnp(10, 1.0, 1).edge_count(), 45u);
}

TEST(Generators, GnpIsDeterministicPerSeed) {
  const Graph a = random_gnp(20, 0.3, 7);
  const Graph b = random_gnp(20, 0.3, 7);
  const Graph c = random_gnp(20, 0.3, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  const Graph g = random_gnp(100, 0.2, 3);
  const double expected = 0.2 * (100.0 * 99.0 / 2.0);
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, 120.0);
}

TEST(Generators, GnmExactEdgeCount) {
  const Graph g = random_gnm(30, 100, 5);
  EXPECT_EQ(g.edge_count(), 100u);
}

TEST(Generators, GnmRejectsTooManyEdges) {
  EXPECT_THROW(random_gnm(4, 7, 1), ContractViolation);
}

TEST(Generators, RandomTreeIsSpanningTree) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Graph g = random_tree(40, seed);
    EXPECT_EQ(g.edge_count(), 39u);
    EXPECT_EQ(component_count(bfs_components(g)), 1u);
  }
}

TEST(Generators, DisjointCliquesComponentCount) {
  const Graph g = disjoint_cliques({3, 4, 5});
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u + 6u + 10u);
  EXPECT_EQ(component_count(bfs_components(g)), 3u);
}

TEST(Generators, PlantedComponentsHaveExactlyK) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = planted_components(48, 6, 0.3, seed);
    EXPECT_EQ(component_count(bfs_components(g)), 6u) << "seed=" << seed;
  }
}

TEST(Generators, PlantedComponentsSingle) {
  const Graph g = planted_components(16, 1, 0.0, 2);
  EXPECT_EQ(component_count(bfs_components(g)), 1u);
}

TEST(Generators, CaterpillarStructure) {
  const Graph g = caterpillar(4, 3);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.edge_count(), 3u + 12u);
  EXPECT_EQ(component_count(bfs_components(g)), 1u);
}

TEST(Generators, CompleteBipartiteStructure) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.node_count(), 7u);
  EXPECT_EQ(g.edge_count(), 12u);
  // no intra-side edges
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(3, 4));
}

TEST(Generators, EmptyGraphHasNComponents) {
  const Graph g = empty_graph(9);
  EXPECT_EQ(component_count(bfs_components(g)), 9u);
}

TEST(Generators, MakeNamedDispatch) {
  EXPECT_EQ(make_named("path", 8, 0).edge_count(), 7u);
  EXPECT_EQ(make_named("complete", 5, 0).edge_count(), 10u);
  EXPECT_EQ(make_named("gnm:20", 10, 1).edge_count(), 20u);
  EXPECT_EQ(make_named("cliques:2", 10, 0).node_count(), 10u);
  EXPECT_EQ(component_count(bfs_components(make_named("cliques:2", 10, 0))), 2u);
  EXPECT_EQ(make_named("grid:2", 8, 0).node_count(), 8u);
  EXPECT_EQ(make_named("bipartite:3", 8, 0).edge_count(), 15u);
  EXPECT_EQ(make_named("empty", 4, 0).edge_count(), 0u);
  EXPECT_EQ(make_named("tree", 12, 3).edge_count(), 11u);
}

TEST(Generators, MakeNamedUnknownThrows) {
  EXPECT_THROW(make_named("nonsense", 4, 0), std::runtime_error);
}

TEST(Generators, MakeNamedReadsEachParameterWhole) {
  const auto diagnosis = [](const std::string& spec, NodeId n) {
    try {
      (void)make_named(spec, n, 1);
    } catch (const BadGraphSpec& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(diagnosis("gnm:12x", 8),
            "graph spec 'gnm:12x': m '12x' is not an integer");
  EXPECT_EQ(diagnosis("gnp:abc", 8),
            "graph spec 'gnp:abc': p 'abc' is not a finite number");
  EXPECT_EQ(diagnosis("gnp:nan", 8),
            "graph spec 'gnp:nan': p 'nan' is not a finite number");
  EXPECT_EQ(diagnosis("gnp:1e999", 8),
            "graph spec 'gnp:1e999': p '1e999' is out of range");
  EXPECT_EQ(diagnosis("gnp:1.5", 8),
            "graph spec 'gnp:1.5': p must be in [0, 1]");
  EXPECT_EQ(diagnosis("gnm:-1", 8),
            "graph spec 'gnm:-1': m '-1' is not an integer");
  EXPECT_EQ(diagnosis("gnm:", 8), "graph spec 'gnm:': m '' is not an integer");
  EXPECT_EQ(diagnosis("gnm:29", 8),
            "graph spec 'gnm:29': m must be at most n(n-1)/2 = 28");
  EXPECT_EQ(diagnosis("cliques:99999999999", 8),
            "graph spec 'cliques:99999999999': k '99999999999' is out of range");
  EXPECT_EQ(diagnosis("cliques:9", 8),
            "graph spec 'cliques:9': k must be in [1, n = 8]");
  EXPECT_EQ(diagnosis("grid:3", 8),
            "graph spec 'grid:3': rows must divide n = 8");
  EXPECT_EQ(diagnosis("planted:2:0.5:1", 8),
            "graph spec 'planted:2:0.5:1': takes at most 2 parameter(s)");
  EXPECT_EQ(diagnosis("path:3", 8),
            "graph spec 'path:3': takes at most 0 parameter(s)");
  EXPECT_EQ(diagnosis("nonsense", 8),
            "graph spec 'nonsense': unknown family 'nonsense'");
  // Whole literals in range still read as before.
  EXPECT_EQ(diagnosis("gnm:28", 8), "accepted");
  EXPECT_EQ(diagnosis("planted:2:0.5", 8), "accepted");
  EXPECT_EQ(diagnosis("gnp:1", 8), "accepted");
}

TEST(Generators, NamedFamiliesNonEmpty) {
  EXPECT_GE(named_families().size(), 10u);
}

}  // namespace
}  // namespace gcalib::graph
