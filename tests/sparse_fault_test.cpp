// Sparse fault injection (fault/sparse_fault.hpp) against the resilience
// surface of the CSR engine (DESIGN.md §15).  Two layers:
//
//   SparseFault.*       — deterministic site-by-site behaviour: which
//                         detector convicts which corruption, what the
//                         ladder heals, and what exhausts it;
//   SparseFaultMatrix.* — the efficacy matrix: site x 8 rows over
//                         threads {1,2,4,7} x 16 trials, 384 randomized
//                         trials in total, with the one
//                         non-negotiable contract that a faulted run may
//                         heal or may fail loudly but must NEVER return a
//                         silently wrong labeling.  Injected solves run
//                         on the sync round loop (the hooks need rounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "fault/sparse_fault.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace gcalib::fault {

// gtest prints a test parameter into the listed test name; by name, not as
// raw bytes.
void PrintTo(SparseFaultSite site, std::ostream* os) { *os << to_string(site); }

}  // namespace gcalib::fault

namespace gcalib {
namespace {

using fault::SparseFaultEvent;
using fault::SparseFaultPlan;
using fault::SparseFaultSite;
using graph::NodeId;

graph::CsrGraph make_cycle(NodeId n) {
  std::vector<graph::Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % n)});
  }
  return graph::CsrGraph::from_edges(n, edges);
}

std::vector<NodeId> cycle_oracle(NodeId n) {
  graph::UnionFind uf(n);
  for (NodeId v = 0; v < n; ++v) {
    uf.unite(v, static_cast<NodeId>((v + 1) % n));
  }
  return uf.min_labels();
}


core::RunOptions base_options(unsigned threads) {
  core::RunOptions options;
  options.instrument = false;
  options.threads = threads;
  options.certify = true;
  return options;
}

core::RecoveryPolicy healing_policy() {
  core::RecoveryPolicy recovery;
  recovery.checkpoint_interval = 2;
  recovery.max_rollbacks = 3;
  recovery.max_restarts = 1;
  return recovery;
}

// --- deterministic site-by-site layer -----------------------------------

TEST(SparseFault, RaisingBitFlipIsDetectedAndHealed) {
  // Flipping a high bit raises the label out of the lattice; the
  // before-sweep monitors catch it in the same round.  Without recovery
  // that is a loud failure; with the ladder it is one rollback.
  const graph::CsrGraph csr = make_cycle(64);
  SparseFaultEvent flip;
  flip.site = SparseFaultSite::kLabelBitFlip;
  flip.round = 1;
  flip.vertex = 3;
  flip.mask = 1u << 20;  // 3 ^ (1 << 20) is far outside [0, 64)

  {
    fault::SparseInjector injector(SparseFaultPlan().add(flip));
    core::RunOptions options = base_options(1);
    injector.install(options);
    EXPECT_THROW(
        core::sparse_cc_solver().solve(core::SolverInput(csr), options),
        ContractViolation);
    EXPECT_EQ(injector.faults_fired(), 1u);
  }
  {
    fault::SparseInjector injector(SparseFaultPlan().add(flip));
    core::RunOptions options = base_options(1);
    options.recovery = healing_policy();
    injector.install(options);
    const core::QueryResult result =
        core::sparse_cc_solver().solve(core::SolverInput(csr), options);
    EXPECT_EQ(result.labels, cycle_oracle(64));
    EXPECT_GE(result.rollbacks, 1u);
    EXPECT_FALSE(result.diagnoses.empty());
  }
}

TEST(SparseFault, LatticeLegalStuckVertexConvictedByCertificate) {
  // Two disjoint 16-cycles; vertex 20 (component two, min id 16) is pinned
  // to label 0 — component one's minimum.  Every per-round monitor stays
  // silent: the pin is in range, <= v, and only ever lowers.  The
  // spanning-forest certificate is the only detector that can convict a
  // cross-component merge — and the pin outlasts every ladder rung, so the
  // run must end in a diagnosed failure, never a silent merge.
  std::vector<graph::Edge> edges;
  for (NodeId v = 0; v < 16; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % 16)});
    edges.push_back({static_cast<NodeId>(16 + v),
                     static_cast<NodeId>(16 + (v + 1) % 16)});
  }
  const graph::CsrGraph csr = graph::CsrGraph::from_edges(32, edges);

  SparseFaultEvent pin;
  pin.site = SparseFaultSite::kStuckVertex;
  pin.round = 0;
  pin.vertex = 20;
  pin.stuck_value = 0;
  pin.stuck_rounds = 1000;  // outlasts every re-run
  fault::SparseInjector injector(SparseFaultPlan().add(pin));

  core::RunOptions options = base_options(1);
  options.recovery = healing_policy();
  injector.install(options);
  try {
    const core::QueryResult result =
        core::sparse_cc_solver().solve(core::SolverInput(csr), options);
    FAIL() << "a permanently pinned vertex produced a certified result ("
           << result.components << " components)";
  } catch (const ContractViolation& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find("unrecoverable corruption"), std::string::npos)
        << what;
  }
}

TEST(SparseFault, ExpiredStuckVertexHealsThroughTheLadder) {
  // The same pin limited to 2 rounds: the first attempt may converge to a
  // corrupt labeling (certificate detects), but a rollback re-run outlives
  // the pin and the canonical labeling comes back.
  const graph::CsrGraph csr = make_cycle(64);
  SparseFaultEvent pin;
  pin.site = SparseFaultSite::kStuckVertex;
  pin.round = 0;
  pin.vertex = 40;
  pin.stuck_value = 7;  // lattice-legal but wrong (cycle min is 0)
  pin.stuck_rounds = 2;
  fault::SparseInjector injector(SparseFaultPlan().add(pin));

  core::RunOptions options = base_options(1);
  options.recovery = healing_policy();
  injector.install(options);
  const core::QueryResult result =
      core::sparse_cc_solver().solve(core::SolverInput(csr), options);
  EXPECT_EQ(result.labels, cycle_oracle(64));
  EXPECT_EQ(injector.faults_fired(), 1u);
}

TEST(SparseFault, LostUpdateSelfHealsWithoutTheLadder) {
  // Reverting one vertex to its round-start value only delays convergence:
  // the next round recomputes the same CAS-min.  No detection is even
  // necessary — the run stays on the lattice and lands on the fixpoint.
  const graph::CsrGraph csr = make_cycle(128);
  SparseFaultEvent lost;
  lost.site = SparseFaultSite::kLostUpdate;
  lost.round = 1;
  lost.vertex = 77;
  fault::SparseInjector injector(SparseFaultPlan().add(lost));

  core::RunOptions options = base_options(1);
  injector.install(options);
  const core::QueryResult result =
      core::sparse_cc_solver().solve(core::SolverInput(csr), options);
  EXPECT_EQ(result.labels, cycle_oracle(128));
  EXPECT_EQ(result.rollbacks, 0u);
  EXPECT_EQ(injector.faults_fired(), 1u);
}

TEST(SparseFault, InstallForcesMonitorsAndChainsHooks) {
  // Injection without monitors is not a supported configuration (a flipped
  // label could be used as an index), and user hooks must keep running.
  const graph::CsrGraph csr = make_cycle(16);
  std::size_t user_rounds = 0;
  core::RunOptions options = base_options(1);
  options.certify = false;
  options.sparse_before_round =
      [&user_rounds](const core::SparseRoundContext&) { ++user_rounds; };
  fault::SparseInjector injector(SparseFaultPlan{});
  injector.install(options);
  EXPECT_TRUE(options.sparse_monitors);
  const core::QueryResult result =
      core::sparse_cc_solver().solve(core::SolverInput(csr), options);
  EXPECT_EQ(result.labels, cycle_oracle(16));
  EXPECT_GE(user_rounds, 1u);  // the chained user hook still fired
}

// --- the efficacy matrix ------------------------------------------------

struct ExecCombo {
  /// Mixed into every trial seed of the row.  Rows sharing a width differ
  /// by tag; the tags are the values the rows have always mixed in, so
  /// every trial keeps its graph and fault storm.
  std::uint64_t seed_tag;
  unsigned threads;
};

/// 8 rows over the thread axis {1, 2, 4, 7}: the width alone picks the
/// sweep backend, and rows sharing a width differ by their seeds.
const ExecCombo kCombos[] = {
    {0, 1}, {1, 2}, {1, 4}, {1, 7}, {2, 1}, {2, 2}, {2, 4}, {2, 7},
};

SparseFaultEvent draw_event(Xoshiro256& rng, SparseFaultSite site, NodeId n) {
  SparseFaultEvent event;
  event.site = site;
  event.round = static_cast<unsigned>(rng.below(5));
  event.vertex = static_cast<NodeId>(rng.below(n));
  switch (site) {
    case SparseFaultSite::kLabelBitFlip:
      event.mask = std::uint32_t{1} << rng.below(32);
      break;
    case SparseFaultSite::kStuckVertex:
      event.stuck_value =
          static_cast<NodeId>(rng.below(std::uint64_t{event.vertex} + 1));
      event.stuck_rounds = 1 + static_cast<unsigned>(rng.below(4));
      break;
    default:
      break;
  }
  return event;
}

/// One randomized trial in one matrix cell.  The contract under test:
/// whatever the fault does, the solve either returns the exact canonical
/// labeling or throws — silence plus a wrong answer is the only failure.
void run_trial(SparseFaultSite site, const ExecCombo& combo,
               std::uint64_t seed, bool with_ladder,
               std::size_t& fired, std::size_t& detected) {
  Xoshiro256 rng(seed);
  const auto n = static_cast<NodeId>(24 + rng.below(104));
  graph::CsrGraph csr;
  std::vector<NodeId> oracle;
  if (rng.below(2) == 0) {
    csr = make_cycle(n);
    oracle = cycle_oracle(n);
  } else {
    const graph::Graph g = graph::random_gnp(n, 0.06, rng());
    csr = graph::CsrGraph::from_graph(g);
    oracle = graph::union_find_components(g);
  }

  SparseFaultPlan plan;
  const std::size_t count = 1 + rng.below(3);
  for (std::size_t f = 0; f < count; ++f) {
    plan.add(draw_event(rng, site, n));
  }
  fault::SparseInjector injector(plan);

  core::RunOptions options = base_options(combo.threads);
  if (with_ladder) options.recovery = healing_policy();
  injector.install(options);

  const std::string context =
      std::string(to_string(site)) + " n=" + std::to_string(n) +
      " threads=" + std::to_string(combo.threads) +
      " seed=" + std::to_string(seed) +
      (with_ladder ? " [ladder]" : " [detect-only]");
  try {
    const core::QueryResult result =
        core::sparse_cc_solver().solve(core::SolverInput(csr), options);
    EXPECT_EQ(result.labels, oracle) << context << ": SILENT WRONG ANSWER";
  } catch (const ContractViolation&) {
    ++detected;  // loud is always acceptable
  }
  fired += injector.faults_fired();
}

class SparseFaultMatrix : public ::testing::TestWithParam<SparseFaultSite> {};

TEST_P(SparseFaultMatrix, NoSilentWrongAnswersAcrossModesAndBackends) {
  // 8 exec combos x 16 trials = 128 randomized trials per site.  Even
  // trials run detect-only (no ladder: every detection is a loud failure),
  // odd trials run the full ladder.
  const SparseFaultSite site = GetParam();
  std::size_t fired = 0;
  std::size_t detected = 0;
  for (const ExecCombo& combo : kCombos) {
    for (std::uint64_t trial = 0; trial < 16; ++trial) {
      const std::uint64_t trial_seed =
          (static_cast<std::uint64_t>(site) << 40) ^
          (static_cast<std::uint64_t>(combo.threads) << 24) ^
          (combo.seed_tag << 16) ^
          (trial * 2654435761ull);
      run_trial(site, combo, trial_seed, trial % 2 == 1, fired, detected);
    }
  }
  // The matrix must actually exercise the machinery: a storm that never
  // lands proves nothing.
  EXPECT_GT(fired, 64u) << to_string(site);
  RecordProperty("faults_fired", static_cast<int>(fired));
  RecordProperty("loud_detections", static_cast<int>(detected));
}

INSTANTIATE_TEST_SUITE_P(Sites, SparseFaultMatrix,
                         ::testing::Values(SparseFaultSite::kLabelBitFlip,
                                           SparseFaultSite::kStuckVertex,
                                           SparseFaultSite::kLostUpdate),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case SparseFaultSite::kLabelBitFlip:
                               return "LabelBitFlip";
                             case SparseFaultSite::kStuckVertex:
                               return "StuckVertex";
                             default:
                               return "LostUpdate";
                           }
                         });

TEST(SparseFaultPlanTest, PoissonStormsAreSeededAndFrontLoaded) {
  const SparseFaultPlan a = SparseFaultPlan::poisson(4096, 0.5, 11);
  const SparseFaultPlan b = SparseFaultPlan::poisson(4096, 0.5, 11);
  const SparseFaultPlan c = SparseFaultPlan::poisson(4096, 0.5, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].round, b.events()[i].round);
    EXPECT_EQ(a.events()[i].vertex, b.events()[i].vertex);
  }
  EXPECT_FALSE(a.empty());
  // Different seed, different storm (overwhelmingly likely at this size).
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].vertex != c.events()[i].vertex ||
              a.events()[i].round != c.events()[i].round;
  }
  EXPECT_TRUE(differs);
  // The quadratic round bias: at least half the storm lands in the first
  // half of the guard window (expected ~70%), so real runs see faults.
  std::size_t early = 0;
  unsigned max_round = 0;
  for (const SparseFaultEvent& event : a.events()) {
    max_round = std::max(max_round, event.round);
    if (event.round < 16) ++early;
  }
  EXPECT_GE(early * 2, a.size());
}

}  // namespace
}  // namespace gcalib
