// Acceptance tests of the fault subsystem (ISSUE 1): every fault kind,
// injected at a detection-guaranteed site, must be (a) flagged by a monitor
// or the end-of-run oracle and (b) recovered — the final labels equal the
// fault-free labels — on three graph families (random G(n,p), chain,
// cliques).  With an empty plan the resilient harness must be bit-identical
// to a hook-free run.
#include "fault/recovery.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/schedule.hpp"
#include "fault/fault_plan.hpp"
#include "fault/monitors.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/generators.hpp"

namespace gcalib::fault {
namespace {

using core::Generation;
using core::HirschbergGca;
using core::StepId;
using graph::Graph;
using graph::NodeId;

constexpr NodeId kN = 24;

struct Family {
  const char* name;
  Graph g;
};

std::vector<Family> families() {
  return {{"gnp", graph::random_gnp(kN, 0.08, 11)},
          {"chain", graph::path(kN)},
          {"cliques", graph::disjoint_cliques({9, 8, 7})}};
}

/// A detection-guaranteed injection site for each fault kind.  The sites
/// rely only on the machine's structure (replicated rows after generations
/// 1/5/9, inactive cells keeping state), never on the input graph — the
/// same scenario must trip the monitors on every family.
struct Scenario {
  const char* name;
  FaultEvent event;
  const char* expected_monitor;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  // High d-bit flip on square cell (1,2) right before generation 10, where
  // that cell is inactive: the corrupt value survives the step verbatim and
  // the per-step register scan sees d outside [0, n] u {inf}.
  FaultEvent flip;
  flip.kind = FaultKind::kBitFlip;
  flip.at = StepId{1, Generation::kPointerJump, 0};
  flip.cell = 1 * kN + 2;
  flip.reg = CellRegister::kD;
  flip.mask = 0x40000000u;
  out.push_back({"bit-flip", flip, "register-sanity"});

  // Bottom-row cell pinned to an out-of-range value during generation 2
  // (which never writes D_N): the register scan fires on the same step.
  FaultEvent stuck;
  stuck.kind = FaultKind::kStuckCell;
  stuck.at = StepId{1, Generation::kMaskNeighbors, 0};
  stuck.cell = std::size_t{kN} * kN + 2;
  stuck.stuck_value = 7 * kN + 13;
  stuck.stuck_steps = 2;
  out.push_back({"stuck-cell", stuck, "register-sanity"});

  // Cell (1,1)'s generation-1 read floats high: its row copy of C becomes
  // infinity while the D_N replica holds the real C(1) — the replication
  // monitor compares the two right after generation 1.
  FaultEvent dropped;
  dropped.kind = FaultKind::kDroppedRead;
  dropped.at = StepId{1, Generation::kCopyCToRows, 0};
  dropped.cell = 1 * kN + 1;
  dropped.mode = DroppedReadMode::kAllOnes;
  out.push_back({"dropped-read", dropped, "replication"});

  // Stale latch in iteration 0: cell (2,1) re-observes its own d = 2 (the
  // row number written by generation 0) instead of C(1) = 1.
  FaultEvent stale;
  stale.kind = FaultKind::kDroppedRead;
  stale.at = StepId{0, Generation::kCopyCToRows, 0};
  stale.cell = 2 * kN + 1;
  stale.mode = DroppedReadMode::kStale;
  out.push_back({"stale-read", stale, "replication"});

  // Misrouted read in iteration 0: cell (3,1) reads cell (3,0) — d = 3 —
  // where C(1) = 1 was addressed; again a row/D_N disagreement.
  FaultEvent wrong;
  wrong.kind = FaultKind::kWrongPointer;
  wrong.at = StepId{0, Generation::kCopyCToRows, 0};
  wrong.cell = 3 * kN + 1;
  wrong.redirect_to = 3 * kN + 0;
  out.push_back({"wrong-pointer", wrong, "replication"});

  return out;
}

TEST(FaultTolerance, EveryKindDetectedAndRecoveredOnEveryFamily) {
  for (const Family& family : families()) {
    const std::vector<NodeId> expected = graph::bfs_components(family.g);
    for (const Scenario& scenario : scenarios()) {
      SCOPED_TRACE(std::string(family.name) + " / " + scenario.name);
      HirschbergGca machine(family.g);
      const ResilientReport report = run_resilient(
          machine, family.g, FaultPlan{}.add(scenario.event));

      EXPECT_EQ(report.faults_fired, 1u);
      ASSERT_FALSE(report.violations.empty());
      EXPECT_EQ(report.violations.front().monitor, scenario.expected_monitor);
      EXPECT_FALSE(report.run.diagnoses.empty());
      EXPECT_GE(report.run.rollbacks + report.run.restarts, 1u);
      EXPECT_TRUE(report.recovered);
      EXPECT_EQ(report.run.labels, expected);
      // Recovery re-executes the afflicted window: strictly more engine
      // steps than a clean run.
      EXPECT_GT(report.run.generations, core::total_generations(kN));
    }
  }
}

TEST(FaultTolerance, EmptyPlanIsBitIdenticalToHookFreeRun) {
  const Graph g = graph::random_gnp(20, 0.15, 5);
  HirschbergGca plain(g);
  const core::RunResult base = plain.run();

  HirschbergGca machine(g);
  const ResilientReport report = run_resilient(machine, g, FaultPlan{});

  EXPECT_EQ(report.run.labels, base.labels);
  EXPECT_EQ(machine.engine().states(), plain.engine().states());
  EXPECT_EQ(report.run.generations, base.generations);
  EXPECT_EQ(report.run.rollbacks, 0u);
  EXPECT_EQ(report.run.restarts, 0u);
  EXPECT_TRUE(report.run.diagnoses.empty());
  EXPECT_TRUE(report.violations.empty());
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.faults_fired, 0u);
  EXPECT_FALSE(machine.engine().has_read_override());
}

TEST(FaultTolerance, AdjacencyFlipEscalatesToRestart) {
  // Cutting edge 10-11 of a chain (both direction bits) during iteration 0
  // is invisible to the monitors — a is still binary, labels stay valid and
  // monotone — but the labeling splits, so only the end-of-run oracle
  // catches it.  Every rollback target is post-corruption, so the ladder
  // must escalate to a restart from the pristine initial snapshot.
  const Graph g = graph::path(kN);
  FaultPlan plan;
  for (const std::size_t cell : {10 * std::size_t{kN} + 11,
                                 11 * std::size_t{kN} + 10}) {
    FaultEvent cut;
    cut.kind = FaultKind::kBitFlip;
    cut.at = StepId{0, Generation::kCopyCToRows, 0};
    cut.cell = cell;
    cut.reg = CellRegister::kA;
    cut.mask = 1;
    plan.add(cut);
  }

  HirschbergGca machine(g);
  ResilientOptions options;
  options.max_rollbacks = 2;
  const ResilientReport report = run_resilient(machine, g, plan, options);

  EXPECT_EQ(report.faults_fired, 2u);
  EXPECT_TRUE(report.violations.empty());  // monitors stay silent
  ASSERT_FALSE(report.run.diagnoses.empty());
  EXPECT_NE(report.run.diagnoses.front().find("end-of-run oracle"),
            std::string::npos);
  EXPECT_EQ(report.run.rollbacks, 2u);
  EXPECT_EQ(report.run.restarts, 1u);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.run.labels, graph::bfs_components(g));
}

TEST(FaultTolerance, PreSnapshotFaultExhaustsRecovery) {
  // A strike during generation 0 corrupts the field before the restart
  // anchor exists — the one unrecoverable window.  The ladder must exhaust
  // its budget and fail with the accumulated diagnosis.
  const Graph g = graph::path(kN);
  FaultPlan plan;
  for (const std::size_t cell : {10 * std::size_t{kN} + 11,
                                 11 * std::size_t{kN} + 10}) {
    FaultEvent cut;
    cut.kind = FaultKind::kBitFlip;
    cut.at = StepId{0, Generation::kInit, 0};
    cut.cell = cell;
    cut.reg = CellRegister::kA;
    cut.mask = 1;
    plan.add(cut);
  }

  HirschbergGca machine(g);
  ResilientOptions options;
  options.max_rollbacks = 1;
  options.max_restarts = 1;
  try {
    (void)run_resilient(machine, g, plan, options);
    FAIL() << "expected recovery exhaustion";
  } catch (const ContractViolation& failure) {
    EXPECT_NE(std::string(failure.what()).find("fault recovery exhausted"),
              std::string::npos);
  }
}

TEST(FaultTolerance, DisabledRecoveryThrowsOnDetection) {
  const Graph g = graph::path(kN);
  FaultEvent flip;
  flip.kind = FaultKind::kBitFlip;
  flip.at = StepId{1, Generation::kPointerJump, 0};
  flip.cell = 1 * kN + 2;
  flip.mask = 0x40000000u;

  HirschbergGca machine(g);
  Injector injector(FaultPlan{}.add(flip));
  MonitorSet monitors(machine);
  core::RunOptions options;
  injector.install(options);
  monitors.install(options);
  // options.recovery left disabled (checkpoint_interval == 0).
  EXPECT_THROW((void)machine.run(options), ContractViolation);
  machine.engine().set_read_override({});
}

TEST(FaultTolerance, PoissonPlanIsDeterministic) {
  const FaultPlan a = FaultPlan::poisson(16, 0.2, 99);
  const FaultPlan b = FaultPlan::poisson(16, 0.2, 99);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FaultEvent& x = a.events()[i];
    const FaultEvent& y = b.events()[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_TRUE(x.at == y.at);
    EXPECT_EQ(x.cell, y.cell);
    EXPECT_EQ(x.reg, y.reg);
    EXPECT_EQ(x.mask, y.mask);
    EXPECT_EQ(x.stuck_value, y.stuck_value);
    EXPECT_EQ(x.stuck_steps, y.stuck_steps);
    EXPECT_EQ(x.mode, y.mode);
    EXPECT_EQ(x.redirect_to, y.redirect_to);
  }
  // A different seed draws a different storm.
  const FaultPlan c = FaultPlan::poisson(16, 0.2, 100);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a.events()[i].at == c.events()[i].at) ||
              a.events()[i].cell != c.events()[i].cell;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultTolerance, PoissonStormRecoversOrFailsLoudly) {
  const Graph g = graph::random_gnp(16, 0.2, 7);
  const std::vector<NodeId> expected = graph::bfs_components(g);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    HirschbergGca machine(g);
    ResilientOptions options;
    options.max_rollbacks = 4;
    options.max_restarts = 2;
    try {
      const ResilientReport report =
          run_resilient(machine, g, FaultPlan::poisson(16, 0.01, seed), options);
      // Whatever the storm hit, a returned labeling passed the oracle.
      EXPECT_EQ(report.run.labels, expected);
    } catch (const ContractViolation&) {
      // Exhaustion is legitimate (e.g. a strike during generation 0); the
      // contract is: never return silently-wrong labels.
    }
  }
}

TEST(FaultTolerance, ScheduleEnumerationMatchesGenerationFormula) {
  for (const std::size_t n : {2u, 4u, 7u, 16u, 24u}) {
    const std::vector<StepId> steps = enumerate_steps(n);
    EXPECT_EQ(steps.size(), core::total_generations(n)) << n;
    EXPECT_EQ(step_index(steps.front(), n), 0u) << n;
    EXPECT_EQ(step_index(steps.back(), n), steps.size() - 1) << n;
  }
  EXPECT_EQ(step_index(StepId{0, Generation::kCopyCToRows, 0}, 4), 1u);
}

TEST(FaultTolerance, NmrMasksMinorityFault) {
  const Graph g = graph::path(12);
  // Replica 0 loses edge 5-6 during iteration 0 and labels nodes 6..11 as a
  // second component; the two clean replicas outvote it node by node.
  FaultPlan faulty;
  for (const std::size_t cell : {5 * std::size_t{12} + 6,
                                 6 * std::size_t{12} + 5}) {
    FaultEvent cut;
    cut.kind = FaultKind::kBitFlip;
    cut.at = StepId{0, Generation::kCopyCToRows, 0};
    cut.cell = cell;
    cut.reg = CellRegister::kA;
    cut.mask = 1;
    faulty.add(cut);
  }

  const NmrReport report = run_nmr(g, {faulty}, 3);
  EXPECT_EQ(report.labels, graph::bfs_components(g));
  EXPECT_GT(report.disagreeing_nodes, 0u);
  EXPECT_EQ(report.unresolved_nodes, 0u);
  EXPECT_EQ(report.cost.replicas, 3u);
  EXPECT_GT(report.cost.overhead_factor, 3.0);
  EXPECT_EQ(report.cost.register_bits_total,
            3 * (report.cost.register_bits_total / 3));
}

TEST(FaultTolerance, RecoveryConvergesUnderSparseSweeps) {
  // The checkpoint/rollback ladder snapshots every register of every cell
  // (a, d and p), so every detection site —
  // including corruption of the adjacency register itself — must still
  // recover when the engine runs the sparse active-region schedule, and the
  // whole resilient run must agree with its dense twin bit for bit.
  for (const Family& family : families()) {
    const std::vector<NodeId> expected = graph::bfs_components(family.g);
    for (const Scenario& scenario : scenarios()) {
      SCOPED_TRACE(std::string(family.name) + " / " + scenario.name);
      const auto run_with = [&](gca::SweepMode sweep) {
        HirschbergGca machine(family.g);
        ResilientOptions options;
        options.base.sweep = sweep;
        return run_resilient(machine, family.g,
                             FaultPlan{}.add(scenario.event), options);
      };
      const ResilientReport sparse = run_with(gca::SweepMode::kSparse);
      EXPECT_TRUE(sparse.recovered);
      EXPECT_EQ(sparse.run.labels, expected);

      const ResilientReport dense = run_with(gca::SweepMode::kDense);
      EXPECT_EQ(sparse.run.labels, dense.run.labels);
      EXPECT_EQ(sparse.run.generations, dense.run.generations);
      EXPECT_EQ(sparse.run.rollbacks, dense.run.rollbacks);
      EXPECT_EQ(sparse.run.restarts, dense.run.restarts);
      EXPECT_EQ(sparse.violations.size(), dense.violations.size());
    }
  }
}

TEST(FaultTolerance, RejectsZeroCheckpointInterval) {
  // A zero interval would silently disable the rollback anchors the caller
  // asked this wrapper for — it must be refused up front, loudly.
  const Graph g = graph::path(8);
  HirschbergGca machine(g);
  ResilientOptions options;
  options.checkpoint_interval = 0;
  EXPECT_THROW((void)run_resilient(machine, g, FaultPlan{}, options),
               ContractViolation);
}

TEST(FaultTolerance, RejectsEmptyEscalationLadder) {
  // No rollbacks and no restarts leaves no recovery action: the first
  // detection could only fail.  Unreachable by intent — rejected up front.
  const Graph g = graph::path(8);
  HirschbergGca machine(g);
  ResilientOptions options;
  options.max_rollbacks = 0;
  options.max_restarts = 0;
  EXPECT_THROW((void)run_resilient(machine, g, FaultPlan{}, options),
               ContractViolation);
}

TEST(FaultTolerance, RejectsNegativeDeadline) {
  const Graph g = graph::path(8);
  HirschbergGca machine(g);
  ResilientOptions options;
  options.deadline_ms = -1;
  EXPECT_THROW((void)run_resilient(machine, g, FaultPlan{}, options),
               ContractViolation);
}

TEST(FaultTolerance, ValidationFiresBeforeAnyExecution) {
  // The contract check must precede hook installation and the run itself:
  // no steps execute, no faults fire.
  const Graph g = graph::path(8);
  HirschbergGca machine(g);
  FaultPlan plan;
  FaultEvent flip;
  flip.kind = FaultKind::kBitFlip;
  flip.at = StepId{0, Generation::kInit, 0};
  flip.cell = 0;
  flip.reg = CellRegister::kD;
  flip.mask = 1;
  plan.add(flip);
  ResilientOptions options;
  options.checkpoint_interval = 0;
  EXPECT_THROW((void)run_resilient(machine, g, plan, options),
               ContractViolation);
  EXPECT_EQ(machine.engine().generation(), 0u);
}

TEST(FaultTolerance, DurableModeSurvivesInjectedFaults) {
  // run_resilient's durable-checkpoint mode: the run both recovers from its
  // injected fault and maintains an on-disk anchor, which is retired once
  // the labeling completes cleanly.
  const std::string dir =
      std::string(::testing::TempDir()) + "gcalib_resilient_durable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const Family family = families().front();
  const Scenario scenario = scenarios().front();
  HirschbergGca machine(family.g);
  ResilientOptions options;
  options.checkpoint_dir = dir;
  const ResilientReport report = run_resilient(
      machine, family.g, FaultPlan{}.add(scenario.event), options);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.run.labels, graph::bfs_components(family.g));
  EXPECT_FALSE(std::filesystem::exists(dir + "/hirschberg.ckpt"))
      << "a clean completion must retire the durable anchor";
}

TEST(FaultTolerance, NmrCostScalesWithReplicas) {
  const NmrCost duplex = nmr_cost(16, 2);
  const NmrCost tmr = nmr_cost(16, 3);
  EXPECT_GT(duplex.overhead_factor, 2.0);
  EXPECT_GT(tmr.overhead_factor, 3.0);
  EXPECT_LT(tmr.overhead_factor, 4.0);  // voter is cheap next to a field
  EXPECT_EQ(tmr.logic_elements_total,
            3 * tmr.logic_elements_single + tmr.voter_logic_elements);
  EXPECT_GT(tmr.voter_logic_elements, 0u);
}

}  // namespace
}  // namespace gcalib::fault
