// Tests of the solver interface (core/cc_solver.hpp): the SolverInput lazy
// views, the try_solve Status mapping, the Runner's throwing thin wrapper,
// and the Table-1 golden contract through the interface (the dense solver
// must report the exact per-step statistics the concrete machine reports).
#include "core/cc_solver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/runner.hpp"
#include "gca/cancel.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace gcalib::core {
namespace {

graph::Graph two_components() {
  return graph::Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
}

TEST(CcSolverRegistry, SolversReportTheirSubstrate) {
  EXPECT_STREQ(dense_cc_solver().name(), "dense-field");
  EXPECT_STREQ(sparse_cc_solver().name(), "sparse-csr");
}

TEST(SolverInput, LazyViewsMaterialiseTheMissingRepresentation) {
  const graph::Graph g = two_components();
  const SolverInput from_dense(g);
  EXPECT_TRUE(from_dense.has_dense());
  EXPECT_FALSE(from_dense.has_csr());
  EXPECT_EQ(from_dense.node_count(), 6u);
  EXPECT_EQ(from_dense.csr(), graph::CsrGraph::from_graph(g));

  const graph::CsrGraph csr = graph::CsrGraph::from_graph(g);
  const SolverInput from_csr(csr);
  EXPECT_FALSE(from_csr.has_dense());
  EXPECT_TRUE(from_csr.has_csr());
  EXPECT_EQ(from_csr.node_count(), 6u);
  EXPECT_EQ(from_csr.dense().edge_count(), g.edge_count());
  EXPECT_TRUE(from_csr.dense().has_edge(0, 1));
  EXPECT_FALSE(from_csr.dense().has_edge(2, 3));
}

TEST(CcSolverOutcome, BothSolversLabelCorrectly) {
  const graph::Graph g = two_components();
  const RunOptions options;
  const std::vector<graph::NodeId> expected =
      graph::union_find_components(g);
  EXPECT_EQ(dense_cc_solver().solve(SolverInput(g), options).labels, expected);
  EXPECT_EQ(sparse_cc_solver().solve(SolverInput(g), options).labels,
            expected);
  EXPECT_EQ(sparse_cc_solver().solve(SolverInput(g), options).components, 2u);
}

TEST(CcSolverOutcome, TrySolveMapsCancellationToStatus) {
  const graph::Graph g = two_components();
  gca::CancelToken token;
  token.request_cancel();
  RunOptions options;
  options.cancel = &token;
  for (const CcSolver* solver : {&dense_cc_solver(), &sparse_cc_solver()}) {
    const QueryOutcome outcome = solver->try_solve(SolverInput(g), options);
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status.code, StatusCode::kCancelled) << solver->name();
    EXPECT_GE(outcome.elapsed_ns, 0);
  }
}

TEST(CcSolverOutcome, TrySolveMapsContractViolationToFailedPrecondition) {
  const graph::Graph g = two_components();
  RunOptions options;
  options.threads = 0;  // invalid: the sweep needs at least one thread
  const QueryOutcome outcome =
      sparse_cc_solver().try_solve(SolverInput(g), options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code, StatusCode::kFailedPrecondition);
  EXPECT_FALSE(outcome.status.message.empty());
}

TEST(RunnerSolve, ThrowsTypedExceptionCarryingTheDiagnosis) {
  // The bugfix contract: `Runner::solve` is a thin wrapper over `try_solve`
  // and rethrows the failing Status as the matching typed exception — the
  // diagnosis text must survive the translation.
  const graph::Graph g = two_components();
  gca::CancelToken token;
  token.request_cancel();
  RunnerOptions options;
  options.cancel = &token;
  const Runner runner(options);
  try {
    (void)runner.solve(g);
    FAIL() << "expected gca::Cancelled";
  } catch (const gca::Cancelled& e) {
    EXPECT_FALSE(std::string(e.what()).empty());
    EXPECT_NE(std::string(e.what()).find("cancel"), std::string::npos);
  }
}

TEST(RunnerSolve, ThrowsContractViolationWithDiagnosisOnCorruptQuery) {
  const graph::Graph g = two_components();
  RunnerOptions options;
  options.configure_query = [](std::size_t, RunOptions& run) {
    run.sparse_before_round = [](const SparseRoundContext&) {
      throw ContractViolation("planted corruption for the diagnosis test");
    };
  };
  const Runner runner(options);
  try {
    (void)runner.solve(g);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("planted corruption"),
              std::string::npos);
  }
}

TEST(RunnerSolve, RoutesCsrOverloadWithoutDenseMaterialisation) {
  const graph::CsrGraph csr = graph::CsrGraph::from_edges(
      5, {{0, 1}, {1, 2}, {3, 4}});
  const Runner runner;
  const QueryResult result = runner.solve(csr);
  EXPECT_EQ(result.labels,
            (std::vector<graph::NodeId>{0, 0, 0, 3, 3}));
  EXPECT_EQ(result.components, 2u);
}

// The golden contract through the interface: solving on the dense substrate
// via CcSolver must report step-for-step the statistics of the concrete
// HirschbergGca machine (the paper's Table 1 observability is part of the
// interface, not an implementation detail).
TEST(CcSolverGolden, DenseSolverReportsTheMachineStepStats) {
  const graph::Graph g = graph::random_gnp(24, 0.2, 11);
  RunOptions options;
  options.instrument = true;

  HirschbergGca machine(g);
  const RunResult direct = machine.run(options);

  const QueryResult routed =
      dense_cc_solver().solve(SolverInput(g), options);
  EXPECT_EQ(routed.labels, direct.labels);
  EXPECT_EQ(routed.generations, direct.generations);
  ASSERT_EQ(routed.sweeps.size(), direct.records.size());
  for (std::size_t i = 0; i < routed.sweeps.size(); ++i) {
    const gca::GenerationStats& got = routed.sweeps[i];
    const gca::GenerationStats& want = direct.records[i].stats;
    EXPECT_EQ(got.label, want.label) << "step " << i;
    EXPECT_EQ(got.active_cells, want.active_cells) << "step " << i;
    EXPECT_EQ(got.total_reads, want.total_reads) << "step " << i;
    EXPECT_EQ(got.max_congestion, want.max_congestion) << "step " << i;
    EXPECT_EQ(got.congestion_classes, want.congestion_classes)
        << "step " << i;
  }
}

TEST(CcSolverGolden, SparseSweepsCarryHookAndJumpLabels) {
  const graph::Graph g = two_components();
  RunOptions options;
  options.instrument = true;
  options.sparse_mode = gca::SparseMode::kSync;  // the round loop's history
  const QueryResult result =
      sparse_cc_solver().solve(SolverInput(g), options);
  ASSERT_FALSE(result.sweeps.empty());
  EXPECT_EQ(result.sweeps.front().label, "hook#0");
  EXPECT_EQ(result.sweeps.size(), result.generations);
  for (const gca::GenerationStats& stats : result.sweeps) {
    EXPECT_TRUE(stats.label.rfind("hook#", 0) == 0 ||
                stats.label.rfind("jump#", 0) == 0)
        << stats.label;
    EXPECT_EQ(stats.cell_count, g.node_count());
  }
}

}  // namespace
}  // namespace gcalib::core
