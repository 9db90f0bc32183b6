// Resilient connected components on the sparse CSR substrate: runs the
// hooking/pointer-jumping engine with the DESIGN.md §15 resilience surface
// engaged — a seeded sparse fault storm, per-round lattice monitors, the
// rollback/restart recovery ladder, an end-of-run spanning-forest
// certificate, and (optionally) durable GSKP checkpoints that survive a
// SIGKILL mid-solve.  The dense-field counterpart is gca_resilient_cc.
//
// Usage:
//   sparse_resilient_cc [--n 20000] [--sparse-mode sync|auto]
//                       [--threads 1] [--seed 7] [--rate 0.05]
//                       [--checkpoint-dir DIR] [--round-delay-us N]
//
//   --n               ring size (the graph is a single n-cycle: one
//                     component, Theta(log n) rounds to converge — a wide,
//                     predictable kill window for crash drills)
//   --rate            expected faults per round (Poisson); 0 = none
//   --checkpoint-dir  durable GSKP checkpoints: a relaunch after a crash
//                     (even SIGKILL) resumes mid-solve from the directory
//   --round-delay-us  artificial per-round stall (crash-recovery smoke
//                     tests use it to widen the kill window)
//
// Exit codes: 0 ok, 1 wrong labels, 2 usage.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "fault/sparse_fault.hpp"
#include "gca/cancel.hpp"
#include "gca/execution.hpp"
#include "graph/csr_graph.hpp"
#include "graph/union_find.hpp"

namespace {

using gcalib::fault::SparseFaultPlan;
using gcalib::fault::SparseFaultSite;
using gcalib::graph::NodeId;

std::size_t count_site(const SparseFaultPlan& plan, SparseFaultSite site) {
  std::size_t count = 0;
  for (const gcalib::fault::SparseFaultEvent& event : plan.events()) {
    if (event.site == site) ++count;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  // The CSR engine has no cell field: the field's --sweep and
  // --record-access are unknown options here (exit 64).
  std::map<std::string, bool> spec = gcalib::cli::with_engine_flags(
      {{"n", true}, {"seed", true}, {"rate", true}, {"round-delay-us", true}});
  spec.erase("sweep");
  spec.erase("record-access");
  const gcalib::CliArgs args =
      gcalib::CliArgs::parse_or_exit(argc, argv, spec);
  const auto n = static_cast<NodeId>(args.get_int("n", 20000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double rate = args.get_double("rate", 0.05);
  const std::int64_t round_delay_us = args.get_int("round-delay-us", 0);
  gcalib::cli::EngineFlags exec;
  try {
    exec = gcalib::cli::engine_flags(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const gcalib::gca::EngineOptions engine =
      gcalib::gca::options_from_flags_or_exit(exec);
  if (n < 3) {
    std::fprintf(stderr, "error: --n must be >= 3\n");
    return 2;
  }
  if (rate < 0.0 || round_delay_us < 0) {
    std::fprintf(stderr,
                 "error: --rate and --round-delay-us must be >= 0\n");
    return 2;
  }

  // One n-cycle: a single component whose min-id labeling takes Theta(log n)
  // hook/jump rounds — every round matters, so a kill at any point lands
  // mid-lattice and the GSKP resume is observable.
  std::vector<gcalib::graph::Edge> edges;
  edges.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % n)});
  }
  const gcalib::graph::CsrGraph csr =
      gcalib::graph::CsrGraph::from_edges(n, edges);

  gcalib::graph::UnionFind oracle(n);
  for (NodeId v = 0; v < n; ++v) {
    oracle.unite(v, static_cast<NodeId>((v + 1) % n));
  }
  const std::vector<NodeId> expected = oracle.min_labels();

  const SparseFaultPlan plan = SparseFaultPlan::poisson(n, rate, seed);
  std::printf("graph: %u-cycle, %zu edges\n", n, csr.edge_count());
  std::printf("fault storm: %zu events (rate %.3g, seed %llu)\n", plan.size(),
              rate, static_cast<unsigned long long>(seed));
  std::printf("  label flips: %zu, stuck vertices: %zu, lost updates: %zu\n\n",
              count_site(plan, SparseFaultSite::kLabelBitFlip),
              count_site(plan, SparseFaultSite::kStuckVertex),
              count_site(plan, SparseFaultSite::kLostUpdate));

  gcalib::fault::SparseInjector injector(plan);
  gcalib::core::RunOptions options;
  options.instrument = false;
  options.threads = engine.threads;
  options.sparse_mode = engine.sparse_mode;
  options.certify = true;
  options.recovery.checkpoint_interval = 1;  // anchor + GSKP every round
  options.recovery.max_rollbacks = 4;
  options.recovery.max_restarts = 2;
  options.checkpoint_dir = exec.checkpoint_dir;
  options.deadline_ms = exec.deadline_ms;
  if (round_delay_us > 0) {
    options.sparse_before_round =
        [round_delay_us](const gcalib::core::SparseRoundContext&) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(round_delay_us));
        };
  }
  injector.install(options);  // chains after the delay hook; forces monitors

  try {
    const gcalib::core::QueryResult result =
        gcalib::core::sparse_cc_solver().solve(
            gcalib::core::SolverInput(csr), options);

    if (result.resumed) {
      std::printf("resumed from durable sparse checkpoint at round %u (%s)\n",
                  result.resume_round, exec.checkpoint_dir.c_str());
    } else if (!exec.checkpoint_dir.empty()) {
      std::printf("durable checkpoints: %s (no resumable state found)\n",
                  exec.checkpoint_dir.c_str());
    }
    std::printf("faults delivered: %zu\n", injector.faults_fired());
    std::printf("recovery: %u rollbacks, %u restarts, %zu diagnoses\n",
                result.rollbacks, result.restarts, result.diagnoses.size());
    for (std::size_t d = 0; d < result.diagnoses.size() && d < 5; ++d) {
      std::printf("  %s\n", result.diagnoses[d].c_str());
    }
    if (result.diagnoses.size() > 5) {
      std::printf("  ... and %zu more\n", result.diagnoses.size() - 5);
    }
    std::printf("certificate: %s\n",
                result.certified ? "built and verified" : "not requested");
    std::printf("components: %zu, generations: %zu\n", result.components,
                result.generations);

    const bool correct = result.labels == expected;
    std::printf("labels vs union-find baseline: %s\n",
                correct ? "MATCH" : "MISMATCH");
    if (!correct) return 1;
  } catch (const gcalib::gca::DeadlineExceeded& expired) {
    std::printf("deadline exceeded: %s\n", expired.what());
    if (!exec.checkpoint_dir.empty()) {
      std::printf("(relaunch with the same --checkpoint-dir to resume)\n");
    }
    return 3;
  } catch (const gcalib::ContractViolation& failure) {
    std::printf("run failed after exhausting recovery: %s\n", failure.what());
    return 1;
  }
  return 0;
}
