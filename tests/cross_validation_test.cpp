// The repository's central correctness property: on any graph, every
// implementation produces the identical min-id component labeling —
//   GCA Hirschberg (the paper's machine)
//   == PRAM-hosted Hirschberg == direct Hirschberg reference
//   == Shiloach-Vishkin == union-find == BFS
//   == the production link pass, on each input shape it reads (a `Graph`,
//      a `from_graph` CsrGraph's arcs, a `from_edges` CsrGraph's pairs).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "graph/union_find.hpp"
#include "pram/hirschberg.hpp"
#include "pram/shiloach_vishkin.hpp"

namespace gcalib {
namespace {

using graph::Graph;
using graph::NodeId;

/// Labels of the link pass (the sparse solver's default engine).
std::vector<NodeId> link_labels(const core::SolverInput& input) {
  core::RunOptions options;
  options.instrument = false;
  return core::sparse_cc_solver().solve(input, options).labels;
}

/// The link pass on every input shape: a `Graph`'s lists, a `from_graph`
/// CsrGraph's arcs, and a `from_edges` CsrGraph's raw pairs.
void expect_link_agrees(const Graph& g, const std::vector<graph::Edge>& pairs,
                        const std::vector<NodeId>& oracle,
                        const std::string& context) {
  EXPECT_EQ(link_labels(core::SolverInput(g)), oracle)
      << context << " [link: graph]";
  EXPECT_EQ(link_labels(core::SolverInput(graph::CsrGraph::from_graph(g))),
            oracle)
      << context << " [link: csr arcs]";
  EXPECT_EQ(link_labels(core::SolverInput(
                graph::CsrGraph::from_edges(g.node_count(), pairs))),
            oracle)
      << context << " [link: csr pairs]";
}

void expect_all_agree(const Graph& g, const std::string& context) {
  const std::vector<NodeId> oracle = graph::union_find_components(g);
  EXPECT_TRUE(graph::is_valid_min_labeling(g, oracle)) << context;

  EXPECT_EQ(graph::bfs_components(g), oracle) << context << " [bfs]";
  EXPECT_EQ(pram::hirschberg_reference(g), oracle) << context << " [hirschberg]";
  EXPECT_EQ(pram::shiloach_vishkin_reference(g), oracle) << context << " [sv]";
  EXPECT_EQ(core::gca_components(g), oracle) << context << " [gca]";
  expect_link_agrees(g, g.edges(), oracle, context);
}

// The family is a std::string, not a const char*: gtest prints a pointer
// parameter as its address, and the printed parameter becomes the ctest
// name, which would then change on every build.
using FamilyParam = std::tuple<std::string, NodeId, std::uint64_t>;

class AllAlgorithmsAgree : public ::testing::TestWithParam<FamilyParam> {};

TEST_P(AllAlgorithmsAgree, OnFamilyInstance) {
  const auto& [family, n, seed] = GetParam();
  const Graph g = graph::make_named(family, n, seed);
  expect_all_agree(g, family + " n=" + std::to_string(n) +
                          " seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Families, AllAlgorithmsAgree,
    ::testing::Combine(
        ::testing::Values<std::string>(
            "gnp:0.02", "gnp:0.1", "gnp:0.5", "path", "cycle", "star",
            "complete", "tree", "empty", "cliques:3", "planted:4:0.25",
            "bipartite:3", "gnm:12"),
        ::testing::Values<NodeId>(6, 16, 23),
        ::testing::Values<std::uint64_t>(1, 7)));

TEST(CrossValidation, DenseSweepSmallSizes) {
  // Exhaustive-ish small-n sweep: these sizes exercise every branch of the
  // sub-generation logic (n = 2..9 covers 1..4 sub-generations, power of
  // two and not).
  for (NodeId n = 2; n <= 9; ++n) {
    for (double p : {0.0, 0.15, 0.35, 0.7, 1.0}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const Graph g = graph::random_gnp(n, p, seed * 31 + n);
        expect_all_agree(g, "n=" + std::to_string(n) + " p=" + std::to_string(p) +
                                " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(CrossValidation, SparseLargeInstance) {
  const Graph g = graph::random_gnp(96, 0.02, 5);
  expect_all_agree(g, "sparse-96");
}

TEST(CrossValidation, DenseLargeInstance) {
  const Graph g = graph::random_gnp(64, 0.8, 6);
  expect_all_agree(g, "dense-64");
}

TEST(CrossValidation, ManySmallComponents) {
  const Graph g = graph::planted_components(72, 18, 0.5, 8);
  expect_all_agree(g, "planted-18");
}

TEST(CrossValidation, PramHostedVariantsAgreeToo) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = graph::random_gnp(20, 0.2, seed);
    const std::vector<NodeId> oracle = graph::union_find_components(g);
    EXPECT_EQ(pram::run_hirschberg_pram(g).labels, oracle) << seed;
    EXPECT_EQ(pram::run_shiloach_vishkin_pram(g).labels, oracle) << seed;
  }
}

TEST(CrossValidation, LinkPassTakesRawPairs) {
  // What `from_edges` keeps and the link pass reads as given: duplicate
  // pairs in both orientations, self-loops, isolated vertices, and edges
  // listed high-to-low, against the same graph built cleanly.
  const auto check = [](NodeId n, const std::vector<graph::Edge>& pairs,
                        const std::string& context) {
    std::vector<graph::Edge> simple;
    for (const graph::Edge& e : pairs) {
      if (e.u != e.v) simple.push_back(e);
    }
    const Graph g = Graph::from_edges(n, simple);
    expect_link_agrees(g, pairs, graph::union_find_components(g), context);
  };
  check(1, {}, "n=1");
  check(1, {{0, 0}}, "n=1 self-loop");
  check(9, {{8, 2}, {2, 8}, {2, 8}, {5, 5}, {7, 6}, {6, 7}, {4, 4}},
        "duplicates, loops, isolated");
  std::vector<graph::Edge> star_pairs;
  std::vector<graph::Edge> path_pairs;
  for (NodeId v = 1; v < 200; ++v) {
    star_pairs.push_back({v, 0});
    star_pairs.push_back({0, v});
    path_pairs.push_back({v, v - 1});
  }
  check(200, star_pairs, "star");
  check(200, path_pairs, "path");
  std::vector<graph::Edge> cliques;
  for (NodeId a = 0; a < 12; ++a) {
    for (NodeId b = 0; b < 12; ++b) {
      cliques.push_back({a, b});            // loops and both orientations
      cliques.push_back({24 - a, 24 - b});  // vertex 12 stays isolated
    }
  }
  check(25, cliques, "two cliques");
}

TEST(CrossValidation, WorstCaseChainForPointerJumping) {
  // A long path is the depth stress for step 5; a star is the fan stress
  // for step 3; a two-path "ladder" exercises 2-cycles of supernodes.
  expect_all_agree(graph::path(128), "path-128");
  expect_all_agree(graph::star(128), "star-128");
  Graph ladder(64);
  for (NodeId i = 0; i + 2 < 64; i += 2) {
    ladder.add_edge(i, i + 2);
    ladder.add_edge(i + 1, i + 3);
  }
  expect_all_agree(ladder, "two-paths");
}

}  // namespace
}  // namespace gcalib
