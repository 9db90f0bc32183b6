// Table-1 golden test (ISSUE 4 satellite): the per-generation active-cell
// counts of a full first iteration must equal the paper's closed forms at
// n = 8 and n = 16 in BOTH sweep modes — the sparse active-region schedule
// must not change a single Table-1 figure, and in sparse mode the physical
// cells_swept counter must collapse to exactly the active cells (the
// regions of the Figure-2 state machine are tight for power-of-two n).
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "core/hirschberg_gca.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"

namespace gcalib::core {
namespace {

using graph::NodeId;

struct Case {
  NodeId n;
  gca::SweepMode sweep;
};

// gtest prints a test parameter into the listed test name; as values, not
// as raw bytes.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "(" << c.n << ", " << to_string(c.sweep) << ")";
}

class Table1Golden : public ::testing::TestWithParam<Case> {};

TEST_P(Table1Golden, ActiveCellsMatchPaperFormulas) {
  const std::size_t n = GetParam().n;
  const bool sparse = GetParam().sweep == gca::SweepMode::kSparse;
  const std::size_t field = n * (n + 1);

  RunOptions options;
  options.sweep = GetParam().sweep;
  HirschbergGca machine(graph::complete(static_cast<NodeId>(n)));
  const RunResult result = machine.run(options);

  std::map<std::pair<Generation, unsigned>, gca::GenerationStats> stats;
  for (const StepRecord& record : result.records) {
    if (record.id.iteration == 0) {
      stats.emplace(
          std::make_pair(record.id.generation, record.id.subgeneration),
          record.stats);
    }
  }

  // Paper Table 1, column "active cells", first iteration.
  const auto expect = [&](Generation g, unsigned sub, std::size_t active) {
    const gca::GenerationStats& s = stats.at({g, sub});
    EXPECT_EQ(s.active_cells, active) << s.label;
    // Physical sweep width: the whole field when dense, exactly the
    // generation's region when sparse — which for power-of-two n equals
    // the active count (every region is tight, see region_for).
    EXPECT_EQ(s.cells_swept, sparse ? active : field) << s.label;
  };

  expect(Generation::kInit, 0, field);            // gen 0: all n(n+1)
  expect(Generation::kCopyCToRows, 0, field);     // gen 1: all n(n+1)
  expect(Generation::kMaskNeighbors, 0, n * n);   // gen 2: the n^2 square
  expect(Generation::kFallback, 0, n);            // gen 4: column 0
  expect(Generation::kCopyTToRows, 0, n * n);     // gen 5: square
  expect(Generation::kMaskMembers, 0, n * n);     // gen 6: square
  expect(Generation::kFallback2, 0, n);           // gen 8: column 0
  expect(Generation::kAdopt, 0, field);           // gen 9: all n(n+1)
  expect(Generation::kPointerJump, 0, n);         // gen 10: column 0
  expect(Generation::kFinalMin, 0, n);            // gen 11: column 0

  // Gens 3/7: n^2 / 2^(s+1) active pairs per sub-generation, halving.
  for (const Generation g : {Generation::kRowMin, Generation::kRowMin2}) {
    for (unsigned sub = 0; sub < subgeneration_count(n); ++sub) {
      expect(g, sub, n * n >> (sub + 1));
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(to_string(info.param.sweep)) + "N" +
         std::to_string(info.param.n);
}

INSTANTIATE_TEST_SUITE_P(
    DenseAndSparse, Table1Golden,
    ::testing::Values(Case{8, gca::SweepMode::kDense},
                      Case{8, gca::SweepMode::kSparse},
                      Case{16, gca::SweepMode::kDense},
                      Case{16, gca::SweepMode::kSparse}),
    case_name);

}  // namespace
}  // namespace gcalib::core
