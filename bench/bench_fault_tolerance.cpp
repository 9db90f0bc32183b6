// Fault-tolerance characterisation of the GCA engine (src/fault/):
//
//  1. fault-free overhead — generations/second of a plain run vs the
//     resilient harness (checkpoints + monitors) on the same machine, in
//     three monitor configurations;
//  2. detection latency — engine generations between a seeded injection and
//     the first monitor violation, per fault kind;
//  3. recovery cost — extra generations re-executed by rollback/restart;
//  4. NMR pricing — FPGA cost of 2/3/5-modular redundancy from the
//     calibrated cost model, the masking alternative to rollback;
//  5. sparse CSR resilience series (DESIGN.md §15) — on the sync round
//     loop, the fault-free price of each layer of the resilience surface
//     (detached hooks, lattice monitors, certificate, rollback anchors)
//     and the detection/recovery behaviour of every sparse fault site
//     under the healing ladder.
//
// With --out, the dense overhead and the whole sparse series are also
// written as JSON (scripts/bench_fault.sh wraps this and writes
// BENCH_fault.json).
//
// Usage: bench_fault_tolerance [--n 32] [--repeat 5] [--sparse-n 65536]
//                              [--out BENCH_fault.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/schedule.hpp"
#include "fault/fault_plan.hpp"
#include "fault/monitors.hpp"
#include "fault/recovery.hpp"
#include "fault/sparse_fault.hpp"
#include "gca/execution.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"

namespace {

using gcalib::core::Generation;
using gcalib::core::HirschbergGca;
using gcalib::core::RunOptions;
using gcalib::core::StepId;
using gcalib::fault::FaultEvent;
using gcalib::fault::FaultKind;
using gcalib::fault::FaultPlan;
using gcalib::fault::ResilientOptions;
using gcalib::fault::ResilientReport;
using gcalib::graph::Graph;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Best-of-`repeat` generations/second (one warmup run first).  Best-of is
/// robust against frequency scaling and scheduler noise on shared machines;
/// the slow outliers measure the machine, not the code.
template <typename Run>
double best_rate(int repeat, Run&& run) {
  (void)run();  // warmup
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t generations = run();
    best = std::max(best,
                    static_cast<double>(generations) / seconds_since(start));
  }
  return best;
}

/// Generations/second of a plain run (no hooks at all).
double plain_rate(const Graph& g, int repeat) {
  return best_rate(repeat, [&g] {
    HirschbergGca machine(g);
    RunOptions options;
    options.instrument = false;
    return machine.run(options).generations;
  });
}

/// Generations/second of a resilient run with an empty fault plan.
double resilient_rate(const Graph& g, int repeat,
                      const gcalib::fault::MonitorConfig& monitors) {
  return best_rate(repeat, [&g, &monitors] {
    HirschbergGca machine(g);
    ResilientOptions options;
    options.base.instrument = false;
    options.monitors = monitors;
    return run_resilient(machine, g, FaultPlan{}, options).run.generations;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const gcalib::CliArgs args = gcalib::CliArgs::parse_or_exit(
      argc, argv,
      {{"n", true}, {"repeat", true}, {"sparse-n", true}, {"out", true}});
  const auto n = static_cast<gcalib::graph::NodeId>(args.get_int("n", 32));
  const int repeat = static_cast<int>(args.get_int("repeat", 5));
  const std::string out_path = args.get_string("out", "");
  const Graph g = gcalib::graph::random_gnp(n, 0.1, 7);
  std::string json = "{\n  \"benchmark\": \"fault\",\n";
  json += "  \"n\": " + std::to_string(n) + ",\n";
  json += "  \"repeat\": " + std::to_string(repeat) + ",\n";

  // --- 1. fault-free overhead ------------------------------------------
  std::printf("Fault-free overhead (n = %u, G(n, 0.1), %d runs per row)\n\n",
              n, repeat);
  const double baseline = plain_rate(g, repeat);

  gcalib::fault::MonitorConfig off;
  off.register_sanity = false;
  off.replication_consistency = false;
  off.dn_checksum = false;
  off.iteration_invariants = false;
  gcalib::fault::MonitorConfig cheap = off;
  cheap.dn_checksum = true;
  cheap.iteration_invariants = true;
  const gcalib::fault::MonitorConfig full;  // everything on

  gcalib::TextTable overhead(
      {"configuration", "generations/s", "overhead"});
  overhead.set_align(0, gcalib::Align::kLeft);
  overhead.add_row({"plain run (no hooks)", gcalib::with_commas(
                        static_cast<std::uint64_t>(baseline)), "-"});
  const struct {
    const char* name;
    const gcalib::fault::MonitorConfig* config;
  } configs[] = {{"checkpoints only", &off},
                 {"+ checksum/iteration monitors", &cheap},
                 {"+ full monitors (register scan)", &full}};
  json += "  \"dense_overhead\": [\n    {\"config\": \"plain run\", "
          "\"generations_per_s\": " +
          std::to_string(baseline) + "}";
  for (const auto& config : configs) {
    const double rate = resilient_rate(g, repeat, *config.config);
    const double percent = 100.0 * (baseline - rate) / baseline;
    overhead.add_row({config.name,
                      gcalib::with_commas(static_cast<std::uint64_t>(rate)),
                      gcalib::fixed(percent, 1) + " %"});
    json += ",\n    {\"config\": \"" + std::string(config.name) +
            "\", \"generations_per_s\": " + std::to_string(rate) +
            ", \"overhead_pct\": " + std::to_string(percent) + "}";
  }
  json += "\n  ],\n";
  std::fputs(overhead.render().c_str(), stdout);
  std::printf(
      "\nTarget: <= 5%% for the checkpointing harness itself; the full\n"
      "register scan adds a per-step O(field) pass and is priced "
      "separately.\n");

  // --- 2 + 3. detection latency and recovery cost -----------------------
  std::printf("\nDetection latency and recovery cost (seeded single faults)\n\n");
  struct Site {
    const char* kind;
    FaultEvent event;
  };
  std::vector<Site> sites;
  {
    FaultEvent flip;
    flip.kind = FaultKind::kBitFlip;
    flip.at = StepId{1, Generation::kPointerJump, 0};
    flip.cell = 1 * std::size_t{n} + 2;
    flip.mask = 0x40000000u;
    sites.push_back({"bit-flip (d, high bit)", flip});

    FaultEvent stuck;
    stuck.kind = FaultKind::kStuckCell;
    stuck.at = StepId{1, Generation::kMaskNeighbors, 0};
    stuck.cell = std::size_t{n} * n + 2;
    stuck.stuck_value = 7 * n + 13;
    stuck.stuck_steps = 2;
    sites.push_back({"stuck-at cell (D_N)", stuck});

    FaultEvent dropped;
    dropped.kind = FaultKind::kDroppedRead;
    dropped.at = StepId{1, Generation::kCopyCToRows, 0};
    dropped.cell = 1 * std::size_t{n} + 1;
    dropped.mode = gcalib::fault::DroppedReadMode::kAllOnes;
    sites.push_back({"dropped read (all-ones)", dropped});

    FaultEvent wrong;
    wrong.kind = FaultKind::kWrongPointer;
    wrong.at = StepId{0, Generation::kCopyCToRows, 0};
    wrong.cell = 3 * std::size_t{n} + 1;
    wrong.redirect_to = 3 * std::size_t{n};
    sites.push_back({"wrong-pointer read", wrong});
  }

  const std::size_t clean_generations = gcalib::core::total_generations(n);
  gcalib::TextTable faults({"fault", "injected@gen", "detected@gen", "latency",
                            "monitor", "rollbacks", "restarts", "extra gens"});
  faults.set_align(0, gcalib::Align::kLeft);
  faults.set_align(4, gcalib::Align::kLeft);
  for (const Site& site : sites) {
    HirschbergGca machine(g);
    ResilientOptions options;
    options.base.instrument = false;
    const ResilientReport report =
        run_resilient(machine, g, FaultPlan{}.add(site.event), options);
    const std::size_t injected = gcalib::fault::step_index(site.event.at, n);
    std::string detected = "-";
    std::string latency = "-";
    std::string monitor = "(oracle)";
    if (!report.violations.empty()) {
      const gcalib::fault::Violation& first = report.violations.front();
      detected = std::to_string(first.generation);
      latency = std::to_string(first.generation + 1 - injected);
      monitor = first.monitor;
    }
    faults.add_row({site.kind, std::to_string(injected), detected, latency,
                    monitor, std::to_string(report.run.rollbacks),
                    std::to_string(report.run.restarts),
                    std::to_string(report.run.generations - clean_generations)});
  }
  std::fputs(faults.render().c_str(), stdout);
  std::printf(
      "\nLatency counts engine generations from the strike to the first\n"
      "monitor violation (1 = caught by the observer of the very step).\n"
      "Extra gens = re-executed steps vs the clean total of %zu.\n",
      clean_generations);

  // --- 4. NMR pricing ---------------------------------------------------
  std::printf("\nN-modular redundancy pricing (calibrated FPGA cost model)\n\n");
  gcalib::TextTable nmr({"replicas", "LEs/field", "voter LEs", "total LEs",
                         "register bits", "overhead"});
  for (const unsigned replicas : {2u, 3u, 5u}) {
    const gcalib::fault::NmrCost cost = gcalib::fault::nmr_cost(n, replicas);
    nmr.add_row({std::to_string(replicas),
                 gcalib::with_commas(cost.logic_elements_single),
                 gcalib::with_commas(cost.voter_logic_elements),
                 gcalib::with_commas(cost.logic_elements_total),
                 gcalib::with_commas(cost.register_bits_total),
                 gcalib::fixed(cost.overhead_factor, 2) + "x"});
  }
  std::fputs(nmr.render().c_str(), stdout);
  std::printf(
      "\nMasking (NMR) trades ~Rx hardware for zero-latency recovery;\n"
      "checkpoint/rollback trades re-executed generations for no extra "
      "cells.\n");

  // --- 5. sparse CSR resilience series (DESIGN.md §15) ------------------
  //
  // G(n, 2/n) is the round-rich family: its components have enough
  // diameter that the sync loop runs ~10 hook/jump rounds, so per-round
  // resilience costs and mid-lattice fault strikes are both observable
  // (an n-cycle's monotone label chain collapses in one jump subloop).
  const auto sparse_n =
      static_cast<gcalib::graph::NodeId>(args.get_int("sparse-n", 65'536));
  const Graph sg = gcalib::graph::random_gnp(
      sparse_n, 2.0 / static_cast<double>(sparse_n), 2026);
  const gcalib::graph::CsrGraph csr = gcalib::graph::CsrGraph::from_graph(sg);
  const std::vector<gcalib::graph::NodeId> sparse_oracle =
      gcalib::graph::union_find_components(sg);
  std::printf(
      "\nSparse CSR resilience surface (n = %u, G(n, 2/n), m = %zu,\n"
      "best of %d runs, 4 threads)\n\n",
      sparse_n, csr.edge_count(), repeat);

  using gcalib::core::SparseRoundContext;
  const auto sparse_best_ms =
      [&](const std::function<void(RunOptions&)>& configure) {
        double best = std::numeric_limits<double>::infinity();
        for (int r = -1; r < repeat; ++r) {  // r == -1 is the untimed warmup
          RunOptions options;
          options.instrument = false;
          options.threads = 4;
          options.sparse_mode = gcalib::gca::SparseMode::kSync;
          configure(options);
          const auto start = std::chrono::steady_clock::now();
          const gcalib::core::QueryResult result =
              gcalib::core::sparse_cc_solver().solve(
                  gcalib::core::SolverInput(csr), options);
          const double ms = seconds_since(start) * 1000.0;
          if (result.labels.empty()) std::abort();
          if (r >= 0) best = std::min(best, ms);
        }
        return best;
      };

  const struct {
    const char* name;
    std::function<void(RunOptions&)> apply;
  } sparse_configs[] = {
      {"detached hooks (no-op)",
       [](RunOptions& o) {
         o.sparse_before_round = [](const SparseRoundContext&) {};
         o.sparse_after_round = [](const SparseRoundContext&) {};
       }},
      {"+ lattice monitors", [](RunOptions& o) { o.sparse_monitors = true; }},
      {"+ forest certificate",
       [](RunOptions& o) {
         o.sparse_monitors = true;
         o.certify = true;
       }},
      {"+ rollback anchors",
       [](RunOptions& o) {
         o.sparse_monitors = true;
         o.certify = true;
         o.recovery.checkpoint_interval = 1;
       }},
  };
  gcalib::TextTable sparse_overhead({"configuration", "ms", "overhead"});
  sparse_overhead.set_align(0, gcalib::Align::kLeft);
  json += "  \"sparse_n\": " + std::to_string(sparse_n) + ",\n";
  json += "  \"sparse_edges\": " + std::to_string(csr.edge_count()) + ",\n";
  json += "  \"sparse_overhead\": [";
  const double bare = sparse_best_ms([](RunOptions&) {});
  sparse_overhead.add_row({"bare solve", gcalib::fixed(bare, 3), "-"});
  json += "\n    {\"config\": \"bare solve\", \"ms\": " +
          std::to_string(bare) + "}";
  for (const auto& config : sparse_configs) {
    const double ms = sparse_best_ms(config.apply);
    const double percent = 100.0 * (ms - bare) / bare;
    sparse_overhead.add_row({config.name, gcalib::fixed(ms, 3),
                             gcalib::fixed(percent, 1) + " %"});
    json += ",\n    {\"config\": \"" + std::string(config.name) +
            "\", \"ms\": " + std::to_string(ms) +
            ", \"overhead_pct\": " + std::to_string(percent) + "}";
  }
  json += "\n  ],\n";
  std::fputs(sparse_overhead.render().c_str(), stdout);
  std::printf(
      "\nEach layer is cumulative; \"bare solve\" is the sync round loop the\n"
      "perf_smoke resilience gate protects.\n");

  // Detection and recovery per sparse fault site, under the full healing
  // ladder (monitors + certificate + rollback/restart).  Every event is
  // transient, so a rollback re-executes the window fault-free.
  std::printf("\nSparse fault sites under the healing ladder\n\n");
  using gcalib::fault::SparseFaultEvent;
  using gcalib::fault::SparseFaultSite;
  const SparseFaultSite sparse_sites[] = {SparseFaultSite::kLabelBitFlip,
                                          SparseFaultSite::kStuckVertex,
                                          SparseFaultSite::kLostUpdate};
  gcalib::TextTable sparse_faults(
      {"site", "fired", "rollbacks", "restarts", "outcome", "ms"});
  sparse_faults.set_align(0, gcalib::Align::kLeft);
  sparse_faults.set_align(4, gcalib::Align::kLeft);
  json += "  \"sparse_faults\": [";
  bool first_row = true;
  for (const SparseFaultSite site : sparse_sites) {
    SparseFaultEvent event;
    event.site = site;
    event.round = 1;
    event.vertex = sparse_n / 2;
    event.mask = 1u << 20;          // raised bit: monitor-visible
    event.stuck_value = 0;          // lattice-legal: certificate territory
    event.stuck_rounds = 2;
    gcalib::fault::SparseInjector injector(
        gcalib::fault::SparseFaultPlan().add(event));
    RunOptions options;
    options.instrument = false;
    options.threads = 4;
    options.certify = true;
    options.recovery.checkpoint_interval = 2;
    options.recovery.max_rollbacks = 3;
    options.recovery.max_restarts = 1;
    injector.install(options);
    std::string outcome;
    unsigned rollbacks = 0;
    unsigned restarts = 0;
    const auto start = std::chrono::steady_clock::now();
    try {
      const gcalib::core::QueryResult result =
          gcalib::core::sparse_cc_solver().solve(
              gcalib::core::SolverInput(csr), options);
      rollbacks = result.rollbacks;
      restarts = result.restarts;
      if (result.labels != sparse_oracle) {
        outcome = "SILENT WRONG ANSWER";  // must never appear
      } else if (rollbacks > 0 || restarts > 0) {
        outcome = "detected + healed";
      } else if (injector.faults_fired() == 0) {
        outcome = "never struck";
      } else {
        outcome = "self-healed";
      }
    } catch (const gcalib::ContractViolation&) {
      outcome = "detected, unrecoverable";
    }
    const double ms = seconds_since(start) * 1000.0;
    sparse_faults.add_row({gcalib::fault::to_string(site),
                           std::to_string(injector.faults_fired()),
                           std::to_string(rollbacks), std::to_string(restarts),
                           outcome, gcalib::fixed(ms, 3)});
    if (!first_row) json += ",";
    first_row = false;
    json += "\n    {\"site\": \"" + std::string(gcalib::fault::to_string(site)) +
            "\", \"fired\": " + std::to_string(injector.faults_fired()) +
            ", \"rollbacks\": " + std::to_string(rollbacks) +
            ", \"restarts\": " + std::to_string(restarts) +
            ", \"outcome\": \"" + outcome +
            "\", \"ms\": " + std::to_string(ms) + "}";
  }
  json += "\n  ]\n}\n";
  std::fputs(sparse_faults.render().c_str(), stdout);
  std::printf(
      "\n\"self-healed\" = the lattice re-lowered the corruption without the\n"
      "ladder; \"detected + healed\" = rollback/restart re-execution.\n");

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
    std::printf("\nwrote %s\n", out_path.c_str());
    return out.good() ? 0 : 1;
  }
  return 0;
}
