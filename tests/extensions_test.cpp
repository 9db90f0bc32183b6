// Tests for the extension features: list ranking (dynamic-pointer kernel),
// Brent-scheduled PRAM steps, the core machine's self-check mode and the
// itemised synthesis report.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/kernels.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "hw/cost_model.hpp"
#include "pram/machine.hpp"

namespace gcalib {
namespace {

// ---------------------------------------------------------------- list rank

TEST(ListRank, SimpleChain) {
  // 0 -> 1 -> 2 -> 3 -> 3 (tail).
  const gca::ListRankResult r = gca::list_rank({1, 2, 3, 3});
  EXPECT_EQ(r.ranks, (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(r.generations, 2u);
}

TEST(ListRank, SingleNodeAndEmpty) {
  EXPECT_TRUE(gca::list_rank({}).ranks.empty());
  EXPECT_EQ(gca::list_rank({0}).ranks, (std::vector<std::size_t>{0}));
}

TEST(ListRank, MultipleLists) {
  // Two lists: 0->1->1 and 2->3->4->4.
  const gca::ListRankResult r = gca::list_rank({1, 1, 3, 4, 4});
  EXPECT_EQ(r.ranks, (std::vector<std::size_t>{1, 0, 2, 1, 0}));
}

TEST(ListRank, ScrambledLongList) {
  // Build a random permutation list of length 200 and check ranks.
  const std::size_t n = 200;
  Xoshiro256 rng(11);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<std::size_t> next(n);
  for (std::size_t k = 0; k + 1 < n; ++k) next[order[k]] = order[k + 1];
  next[order[n - 1]] = order[n - 1];
  const gca::ListRankResult r = gca::list_rank(next);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(r.ranks[order[k]], n - 1 - k) << k;
  }
  EXPECT_EQ(r.generations, 8u);  // ceil(lg 200)
}

TEST(ListRank, TailBecomesTheCongestionHotSpot) {
  // Pointer doubling funnels reads onto the tail: in the final generation
  // every cell within doubling range of the tail reads it, so congestion is
  // data-dependent and grows toward n/2 — the same phenomenon as the
  // Hirschberg machine's generation 10 (Table 1: delta <= n, data dep.).
  const gca::ListRankResult r = gca::list_rank({1, 2, 3, 4, 5, 6, 7, 7});
  EXPECT_EQ(r.ranks[0], 7u);
  EXPECT_GT(r.max_congestion, 1u);
  EXPECT_LE(r.max_congestion, 8u);
}

TEST(ListRank, RejectsOutOfRangeSuccessor) {
  EXPECT_THROW((void)gca::list_rank({1, 5}), ContractViolation);
}

// -------------------------------------------------------------- step_virtual

TEST(StepVirtual, SnapshotSemanticsPreserved) {
  // The swap test from the plain-step suite, but with 2 virtual processors
  // on 1 physical machine: semantics must be the synchronous ones.
  pram::Machine m(2, pram::AccessMode::kCrew);
  m.store(0, 1);
  m.store(1, 2);
  m.step_virtual(2, 1, [](pram::Processor& p) {
    const pram::Word other = p.read(1 - p.id());
    p.write(p.id(), other);
  });
  EXPECT_EQ(m.load(0), 2);
  EXPECT_EQ(m.load(1), 1);
}

TEST(StepVirtual, ChargesBrentTime) {
  pram::Machine m(16, pram::AccessMode::kCrew);
  m.step_virtual(16, 4, [](pram::Processor& p) {
    p.write(p.id(), static_cast<pram::Word>(p.id()));
  });
  EXPECT_EQ(m.stats().steps, 4u);   // ceil(16/4)
  EXPECT_EQ(m.stats().work, 16u);   // work is the virtual count
  m.step_virtual(10, 4, [](pram::Processor&) {});
  EXPECT_EQ(m.stats().steps, 4u + 3u);  // ceil(10/4) = 3
}

TEST(StepVirtual, FullWidthEqualsPlainStep) {
  pram::Machine a(4, pram::AccessMode::kCrew);
  pram::Machine b(4, pram::AccessMode::kCrew);
  const auto body = [](pram::Processor& p) {
    p.write(p.id(), static_cast<pram::Word>(2 * p.id()));
  };
  a.step(4, body);
  b.step_virtual(4, 4, body);
  EXPECT_EQ(a.stats().steps, b.stats().steps);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.load(i), b.load(i));
}

TEST(StepVirtual, RejectsZeroPhysicalProcessors) {
  pram::Machine m(4, pram::AccessMode::kCrew);
  EXPECT_THROW(m.step_virtual(4, 0, [](pram::Processor&) {}),
               ContractViolation);
}

// ----------------------------------------------------------------- self check

TEST(SelfCheck, PassesOnHealthyRuns) {
  core::RunOptions options;
  options.self_check = true;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const graph::Graph g = graph::random_gnp(20, 0.2, seed);
    core::HirschbergGca machine(g);
    EXPECT_NO_THROW(machine.run(options)) << seed;
  }
}

TEST(SelfCheck, GraphFromFieldRoundTrips) {
  // No rule writes the adjacency bit a: the field still holds the input
  // graph after a whole run, instrumented or not, at any sweep width.
  const graph::Graph g = graph::random_gnp(12, 0.4, 3);
  core::HirschbergGca fresh(g);
  EXPECT_EQ(fresh.graph_from_field(), g);
  for (const bool instrument : {true, false}) {
    for (const unsigned threads : {1u, 4u}) {
      core::RunOptions options;
      options.instrument = instrument;
      options.threads = threads;
      core::HirschbergGca machine(g);
      (void)machine.run(options);
      EXPECT_EQ(machine.graph_from_field(), g)
          << "instrument=" << instrument << " threads=" << threads;
    }
  }
}

TEST(SelfCheck, CorruptionMidRunSelfHeals) {
  // Poking a label cell between iterations does NOT corrupt the final
  // result: the machine re-derives components from the adjacency bits each
  // iteration (the corrupted node simply joins a component it is connected
  // to anyway).  Documented behaviour, not a detection case.
  const graph::Graph g = graph::path(8);
  core::HirschbergGca machine(g);
  machine.initialize();
  machine.run_iteration(0);
  {
    const std::size_t cell = machine.geometry().index_of(7, 0);
    core::Cell poked = machine.engine().state(cell);
    poked.d = 3;
    machine.engine().set_state(cell, poked);
  }
  machine.run_iteration(1);
  machine.run_iteration(2);
  EXPECT_EQ(machine.current_labels(), std::vector<graph::NodeId>(8, 0));
}

TEST(SelfCheck, OraclePredicateFiresOnBadFinalState) {
  // The exact predicate run() evaluates in self_check mode: a final state
  // whose column 0 is inconsistent with the stored adjacency must fail it.
  const graph::Graph g = graph::path(8);
  core::HirschbergGca machine(g);
  core::RunOptions options;
  options.self_check = true;
  machine.run(options);  // healthy run passes
  {
    const std::size_t cell = machine.geometry().index_of(7, 0);
    core::Cell poked = machine.engine().state(cell);
    poked.d = 7;
    machine.engine().set_state(cell, poked);
  }
  EXPECT_FALSE(graph::is_valid_min_labeling(machine.graph_from_field(),
                                            machine.current_labels()));
}

// -------------------------------------------------------------------- report

TEST(SynthesisReport, BreakdownSumsToTotal) {
  const hw::CostParameters params = hw::CostParameters::cyclone2_calibrated();
  for (std::size_t n : {4u, 16u, 64u}) {
    const hw::FieldPortrait field = hw::analyze_field(n);
    const hw::CostBreakdown items = hw::breakdown(field, params);
    const hw::SynthesisEstimate est = hw::estimate(field, params);
    // Each category is rounded independently; allow one LE per category.
    const auto total = static_cast<double>(items.total());
    EXPECT_NEAR(total, static_cast<double>(est.logic_elements), 5.0) << n;
  }
}

TEST(SynthesisReport, ReportMentionsKeyQuantities) {
  const std::string report = hw::synthesis_report(16);
  EXPECT_NE(report.find("272"), std::string::npos);    // cells
  EXPECT_NE(report.find("23051"), std::string::npos);  // LEs
  EXPECT_NE(report.find("2192"), std::string::npos);   // register bits
  EXPECT_NE(report.find("extended"), std::string::npos);
  EXPECT_NE(report.find("controller"), std::string::npos);
}

TEST(SynthesisReport, ExtendedMuxOnlyInExtendedCells) {
  const hw::CostParameters params = hw::CostParameters::cyclone2_calibrated();
  const hw::CostBreakdown items = hw::breakdown(hw::analyze_field(8), params);
  EXPECT_GT(items.extended_mux, 0u);
  EXPECT_GT(items.static_mux, items.extended_mux);  // n^2 cells vs n cells
}

}  // namespace
}  // namespace gcalib
