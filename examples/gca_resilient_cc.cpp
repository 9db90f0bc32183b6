// Resilient connected components on the GCA: runs Hirschberg's algorithm
// while a seeded Poisson fault storm strikes the cell field, and shows the
// detection/rollback machinery carrying the run to a correct labeling.
//
// Usage:
//   gca_resilient_cc [--family gnp:0.1] [--n 24] [--seed 7] [--rate 0.01]
//                    [--threads 1] [--policy pool] [--no-instrumentation]
//                    [--replicas 3] [--trace-out FILE] [--metrics-out FILE]
//                    [--checkpoint-dir DIR] [--deadline-ms N] [--step-delay-us N]
//
//   --rate           expected faults per engine step (Poisson); 0 = none
//                    (the run is then fully deterministic)
//   --replicas       NMR pricing block (masking alternative; cost model only)
//   --checkpoint-dir durable checkpoints: a relaunch after a crash (even
//                    SIGKILL) resumes mid-algorithm from the directory
//   --deadline-ms    wall-clock budget; expiry exits with code 3
//   --step-delay-us  artificial per-step stall (crash-recovery smoke tests
//                    use it to widen the kill window)
// The shared execution flags steer the GCA engine backend of the resilient
// run (the recovery re-executions reuse the same worker pool).
//
// Exit codes: 0 ok, 1 wrong labels, 2 usage, 3 deadline exceeded.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/format.hpp"
#include "core/schedule.hpp"
#include "fault/fault_plan.hpp"
#include "fault/monitors.hpp"
#include "fault/recovery.hpp"
#include "gca/execution.hpp"
#include "gca/metrics.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/generators.hpp"

namespace {

using gcalib::fault::FaultKind;
using gcalib::fault::FaultPlan;

std::size_t count_kind(const FaultPlan& plan, FaultKind kind) {
  std::size_t count = 0;
  for (const gcalib::fault::FaultEvent& event : plan.events()) {
    if (event.kind == kind) ++count;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  const gcalib::CliArgs args = gcalib::CliArgs::parse_or_exit(
      argc, argv,
      gcalib::cli::with_engine_flags({{"family", true},
                                         {"n", true},
                                         {"seed", true},
                                         {"rate", true},
                                         {"replicas", true},
                                         {"step-delay-us", true}}));
  const auto n = static_cast<gcalib::graph::NodeId>(args.get_int("n", 24));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double rate = args.get_double("rate", 0.01);
  const std::string family = args.get_string("family", "gnp:0.1");
  gcalib::cli::EngineFlags exec;
  gcalib::gca::ExecutionPolicy policy = gcalib::gca::ExecutionPolicy::kPool;
  try {
    exec = gcalib::cli::engine_flags(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const gcalib::gca::EngineOptions engine =
      gcalib::gca::options_from_flags_or_exit(exec);
  policy = engine.policy;
  if (n < 1) {
    std::fprintf(stderr, "error: --n must be >= 1\n");
    return 2;
  }
  if (rate < 0.0) {
    std::fprintf(stderr, "error: --rate must be >= 0\n");
    return 2;
  }
  const std::int64_t step_delay_us = args.get_int("step-delay-us", 0);
  if (step_delay_us < 0) {
    std::fprintf(stderr, "error: --step-delay-us must be >= 0\n");
    return 2;
  }

  gcalib::graph::Graph g;
  try {
    g = gcalib::graph::make_named(family, n, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const std::vector<gcalib::graph::NodeId> expected =
      gcalib::graph::bfs_components(g);

  const FaultPlan plan = FaultPlan::poisson(n, rate, seed);
  std::printf("graph: %s, n = %u, %zu edges\n", family.c_str(), n,
              g.edge_count());
  std::printf(
      "fault storm: %zu events over %zu engine steps "
      "(rate %.3g, seed %llu)\n",
      plan.size(), gcalib::core::total_generations(n), rate,
      static_cast<unsigned long long>(seed));
  std::printf("  bit flips: %zu, stuck cells: %zu, dropped reads: %zu, "
              "wrong pointers: %zu\n\n",
              count_kind(plan, FaultKind::kBitFlip),
              count_kind(plan, FaultKind::kStuckCell),
              count_kind(plan, FaultKind::kDroppedRead),
              count_kind(plan, FaultKind::kWrongPointer));

  gcalib::core::HirschbergGca machine(g);
  gcalib::gca::Trace trace;
  gcalib::fault::ResilientOptions options;
  options.base.instrument = exec.instrumentation;
  options.base.threads = exec.threads;
  options.base.policy = policy;
  options.base.sweep = gcalib::gca::parse_sweep_mode(exec.sweep);
  options.base.kernels = engine.kernels;
  options.base.record_access = exec.record_access;
  if (exec.wants_metrics()) options.base.sink = &trace;
  options.max_rollbacks = 4;
  options.max_restarts = 2;
  options.checkpoint_dir = exec.checkpoint_dir;
  options.deadline_ms = exec.deadline_ms;
  if (step_delay_us > 0) {
    options.base.before_step = [step_delay_us](gcalib::core::HirschbergGca&,
                                               const gcalib::core::StepId&) {
      std::this_thread::sleep_for(std::chrono::microseconds(step_delay_us));
    };
  }

  try {
    const gcalib::fault::ResilientReport report =
        run_resilient(machine, g, plan, options);

    if (report.run.resumed) {
      std::printf("resumed from durable checkpoint at iteration %u (%s)\n",
                  report.run.resume_iteration, exec.checkpoint_dir.c_str());
    } else if (!exec.checkpoint_dir.empty()) {
      std::printf("durable checkpoints: %s (no resumable state found)\n",
                  exec.checkpoint_dir.c_str());
    }
    std::printf("faults delivered: %zu\n", report.faults_fired);
    std::printf("monitor violations: %zu\n", report.violations.size());
    for (std::size_t v = 0; v < report.violations.size() && v < 5; ++v) {
      const gcalib::fault::Violation& violation = report.violations[v];
      std::printf("  [gen %llu] %s: %s\n",
                  static_cast<unsigned long long>(violation.generation),
                  violation.monitor.c_str(), violation.message.c_str());
    }
    if (report.violations.size() > 5) {
      std::printf("  ... and %zu more\n", report.violations.size() - 5);
    }
    std::printf("recovery: %u rollbacks, %u restarts, %zu diagnoses\n",
                report.run.rollbacks, report.run.restarts,
                report.run.diagnoses.size());
    std::printf("generations executed: %zu (clean run: %zu)\n",
                report.run.generations,
                gcalib::core::total_generations(n));

    const bool correct = report.run.labels == expected;
    std::printf("labels vs sequential BFS baseline: %s\n",
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
    std::printf("(a strike during generation 0 — before the restart anchor "
                "exists — is unrecoverable by design)\n");
  }

  if (exec.wants_metrics()) {
    // The trace also covers rolled-back re-executions — the timeline shows
    // what the recovery actually cost.
    if (!exec.trace_out.empty()) {
      gcalib::gca::write_trace_file(trace, exec.trace_out);
    }
    if (!exec.metrics_out.empty()) {
      gcalib::gca::write_metrics_file(trace, exec.metrics_out);
    }
    std::fputs(gcalib::gca::format_summary(trace.summary()).c_str(), stdout);
  }

  // Masking alternative: what N-modular redundancy would cost in hardware.
  const auto replicas =
      static_cast<unsigned>(args.get_int("replicas", 3));
  const gcalib::fault::NmrCost cost = gcalib::fault::nmr_cost(n, replicas);
  std::printf("\n%u-modular redundancy at n = %u (cost model):\n", replicas, n);
  std::printf("  %s LEs per field, %s LE voter, %s LEs total (%sx)\n",
              gcalib::with_commas(cost.logic_elements_single).c_str(),
              gcalib::with_commas(cost.voter_logic_elements).c_str(),
              gcalib::with_commas(cost.logic_elements_total).c_str(),
              gcalib::fixed(cost.overhead_factor, 2).c_str());
  return 0;
}
