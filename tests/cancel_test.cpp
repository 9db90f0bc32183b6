// Cooperative cancellation and deadline tests (DESIGN.md §10): every sweep
// backend and the CSR link pass honour a tripped CancelToken and an expired
// deadline, the unwind leaves the field on the last completed generation
// (never mid-commit), and a machine is reusable after the stop signal
// clears.
#include "gca/cancel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/runner.hpp"
#include "gca/execution.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"

namespace gcalib::core {
namespace {

using graph::Graph;
using graph::NodeId;

/// The sweep width picks the backend: one thread sweeps on the caller,
/// more on the shared pool.
struct Backend {
  const char* name;
  unsigned threads;
};

std::vector<Backend> backends() { return {{"sequential", 1}, {"pool", 4}}; }

TEST(Cancel, PreTrippedTokenAbortsEveryBackend) {
  const Graph g = graph::random_gnp(24, 0.1, 5);
  for (const Backend& backend : backends()) {
    SCOPED_TRACE(backend.name);
    HirschbergGca machine(g);
    gca::CancelToken token;
    token.request_cancel();
    RunOptions options;
    options.instrument = false;
    options.threads = backend.threads;
    options.cancel = &token;
    EXPECT_THROW((void)machine.run(options), gca::Cancelled);
    // The poll fires at step entry, before any work: nothing committed.
    EXPECT_EQ(machine.engine().generation(), 0u);
  }
}

TEST(Cancel, MidRunCancellationAbortsEveryBackend) {
  const Graph g = graph::random_gnp(24, 0.1, 5);
  for (const Backend& backend : backends()) {
    SCOPED_TRACE(backend.name);
    HirschbergGca machine(g);
    gca::CancelToken token;
    RunOptions options;
    options.instrument = false;
    options.threads = backend.threads;
    options.cancel = &token;
    options.before_step = [&token](HirschbergGca&, const StepId& step) {
      if (step.iteration >= 1) token.request_cancel();
    };
    EXPECT_THROW((void)machine.run(options), gca::Cancelled);
    EXPECT_GT(machine.engine().generation(), 0u)
        << "iteration 0 must have committed before the trip";
  }
}

TEST(Cancel, ExpiredDeadlineAbortsEveryBackend) {
  const Graph g = graph::random_gnp(24, 0.1, 5);
  for (const Backend& backend : backends()) {
    SCOPED_TRACE(backend.name);
    HirschbergGca machine(g);
    RunOptions options;
    options.instrument = false;
    options.threads = backend.threads;
    options.deadline_ms = 1;
    options.before_step = [](HirschbergGca&, const StepId&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    };
    EXPECT_THROW((void)machine.run(options), gca::DeadlineExceeded);
  }
}

TEST(Cancel, UnwindLeavesFieldOnPreviousGeneration) {
  const Graph g = graph::random_gnp(20, 0.15, 7);
  HirschbergGca machine(g);
  (void)machine.initialize();
  machine.run_iteration(0);
  const std::vector<std::uint64_t> before = machine.d_snapshot();
  const std::uint64_t generation = machine.engine().generation();

  machine.engine().set_deadline_ns(gca::steady_now_ns() - 1);
  EXPECT_THROW((void)machine.step_generation(Generation::kCopyCToRows),
               gca::DeadlineExceeded);
  machine.engine().set_deadline_ns(0);

  EXPECT_EQ(machine.engine().generation(), generation);
  EXPECT_EQ(machine.d_snapshot(), before)
      << "an aborted step must not half-commit the double buffer";
}

TEST(Cancel, MachineReusableAfterTokenResets) {
  const Graph g = graph::random_gnp(24, 0.1, 5);
  const std::vector<NodeId> expected = graph::bfs_components(g);
  HirschbergGca machine(g);
  gca::CancelToken token;

  RunOptions options;
  options.instrument = false;
  options.cancel = &token;
  options.before_step = [&token](HirschbergGca&, const StepId& step) {
    if (step.iteration >= 1) token.request_cancel();
  };
  EXPECT_THROW((void)machine.run(options), gca::Cancelled);

  // The run detached the token and deadline on unwind; a re-armed run on
  // the same machine must complete and label correctly.
  token.reset();
  options.before_step = {};
  const RunResult result = machine.run(options);
  EXPECT_EQ(result.labels, expected);
}

TEST(Cancel, DeadlineCoversGranularSteps) {
  const Graph g = graph::random_gnp(16, 0.2, 9);
  HirschbergGca machine(g);
  machine.engine().set_deadline_ns(gca::steady_now_ns() - 1);
  EXPECT_THROW((void)machine.initialize(), gca::DeadlineExceeded);
  machine.engine().set_deadline_ns(0);
  EXPECT_NO_THROW((void)machine.initialize());
}

TEST(Cancel, SteadyDeadlineClampsZeroBudget) {
  // A zero/negative budget must mean "already expired", never "unlimited".
  const std::int64_t now = gca::steady_now_ns();
  EXPECT_GT(gca::steady_deadline_ns(0), now - 1);
  EXPECT_LE(gca::steady_deadline_ns(0), gca::steady_now_ns() + 1'000'000);
}

/// One hub, a million spokes: the worst case for the CSR sweep's stop
/// polling, because a single vertex's neighbour scan is a million arcs.
/// The adjacency is built here, outside the timed solves.
graph::CsrGraph star_graph(NodeId spokes) {
  std::vector<graph::Edge> edges;
  edges.reserve(spokes);
  for (NodeId v = 1; v <= spokes; ++v) edges.push_back({0, v});
  graph::CsrGraph star = graph::CsrGraph::from_edges(spokes + 1, edges);
  (void)star.offsets();
  return star;
}

/// The star tests are about the sync round loop's polling: on the link
/// pass a million-edge star can finish inside a 1 ms deadline.
RunOptions sync_options() {
  RunOptions options;
  options.instrument = false;
  options.sparse_mode = gca::SparseMode::kSync;
  return options;
}

TEST(Cancel, StarGraphCancelLatencyIsEdgeBounded) {
  // The hook sweep's poll budget counts *edges*, not vertices: a tripped
  // token aborts within ~one poll stride of arcs even mid-scan of the hub.
  // A per-vertex counter (the pre-fix behaviour) would scan all million
  // hub arcs — and thousands of spoke vertices after them — before the
  // first poll, making cancel latency proportional to the largest degree.
  const graph::CsrGraph star = star_graph(1'000'000);
  gca::CancelToken token;
  token.request_cancel();
  RunOptions options = sync_options();
  options.cancel = &token;
  const QueryOutcome outcome =
      sparse_cc_solver().try_solve(SolverInput(star), options);
  EXPECT_EQ(outcome.status.code, StatusCode::kCancelled);
  EXPECT_LT(outcome.elapsed_ns, 250'000'000)
      << "pre-tripped cancel should abort within one poll stride of arcs";
}

TEST(Cancel, StarGraphDeadlineExpiresMidNeighborScan) {
  // With a 1 ms budget the deadline trips inside the hub's arc scan; the
  // edge-grained poll notices within a stride instead of after the scan.
  const graph::CsrGraph star = star_graph(1'000'000);
  RunOptions options = sync_options();
  options.deadline_ms = 1;
  const QueryOutcome outcome =
      sparse_cc_solver().try_solve(SolverInput(star), options);
  EXPECT_EQ(outcome.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_LT(outcome.elapsed_ns, 250'000'000)
      << "deadline latency must be edge-bounded, not degree-bounded";
}

TEST(Cancel, StarGraphSolvesCleanlyWithoutStopSignals) {
  // The unarmed loop carries no poll counter; make sure the split paths
  // agree on the labeling.
  const graph::CsrGraph star = star_graph(10'000);
  const RunOptions options = sync_options();
  const QueryOutcome outcome =
      sparse_cc_solver().try_solve(SolverInput(star), options);
  ASSERT_TRUE(outcome.ok()) << outcome.status.message;
  EXPECT_EQ(outcome.result.components, 1u);
  for (const NodeId label : outcome.result.labels) EXPECT_EQ(label, 0u);
}

/// Two million random pairs: a link pass that takes well over 1 ms.
graph::CsrGraph random_pairs(NodeId n, std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<graph::Edge> edges(m);
  for (graph::Edge& e : edges) {
    e.u = static_cast<NodeId>(rng.below(n));
    e.v = static_cast<NodeId>(rng.below(n));
  }
  return graph::CsrGraph::from_edges(n, edges);
}

TEST(Cancel, LinkPassHonoursAPreTrippedTokenThroughTheRunner) {
  const graph::CsrGraph csr = random_pairs(1 << 12, 1 << 13, 3);
  gca::CancelToken token;
  token.request_cancel();
  RunnerOptions options;
  options.threads = 2;
  options.cancel = &token;
  const QueryOutcome outcome = Runner(options).try_solve(csr);
  EXPECT_EQ(outcome.status.code, StatusCode::kCancelled);
}

TEST(Cancel, LinkPassDeadlineExpiresMidPass) {
  const graph::CsrGraph csr = random_pairs(1 << 20, 2'000'000, 5);
  RunnerOptions options;
  options.threads = 2;
  options.deadline_ms = 1;
  const QueryOutcome outcome = Runner(options).try_solve(csr);
  EXPECT_EQ(outcome.status.code, StatusCode::kDeadlineExceeded)
      << outcome.status.message;
  EXPECT_LT(outcome.elapsed_ns, 250'000'000)
      << "the link pass polls every few thousand edges";
}

}  // namespace
}  // namespace gcalib::core
