// The repository's central correctness property: on any graph, all five
// implementations produce the identical min-id component labeling —
//   GCA Hirschberg (the paper's machine)
//   == PRAM-hosted Hirschberg == direct Hirschberg reference
//   == Shiloach-Vishkin == union-find == BFS.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/hirschberg_gca.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "graph/union_find.hpp"
#include "pram/hirschberg.hpp"
#include "pram/shiloach_vishkin.hpp"

namespace gcalib {
namespace {

using graph::Graph;
using graph::NodeId;

void expect_all_agree(const Graph& g, const std::string& context) {
  const std::vector<NodeId> oracle = graph::union_find_components(g);
  EXPECT_TRUE(graph::is_valid_min_labeling(g, oracle)) << context;

  EXPECT_EQ(graph::bfs_components(g), oracle) << context << " [bfs]";
  EXPECT_EQ(pram::hirschberg_reference(g), oracle) << context << " [hirschberg]";
  EXPECT_EQ(pram::shiloach_vishkin_reference(g), oracle) << context << " [sv]";
  EXPECT_EQ(core::gca_components(g), oracle) << context << " [gca]";
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
