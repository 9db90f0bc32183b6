// gca_cc_tool — command-line connected-components utility.
//
// Reads a graph (edge-list or DIMACS, file or stdin), labels its connected
// components with a selectable implementation, and prints the labeling,
// component summary and machine statistics.  This is the "downstream user"
// entry point of the library.
//
//   $ ./gca_cc_tool --format edges graph.txt
//   $ ./gca_cc_tool --algorithm pram --format dimacs graph.col
//   $ echo "4 2\n0 1\n2 3" | ./gca_cc_tool
//   $ ./gca_cc_tool --generate complete --n 16 --algorithm tree --stats
//   $ ./gca_cc_tool --generate gnp:0.5 --n 128 --threads 4
//
// Algorithms: gca (default) | tree | ncells | pram | sv | unionfind | bfs
// Engine flags (--threads, --sweep, --sparse-mode, --no-instrumentation,
// --record-access, --trace-out, --metrics-out) steer the solver backend and
// its observability: --threads 1 sweeps on the calling thread, more on the
// shared worker pool.  Invalid combinations are rejected before the run
// with exit status 2: --record-access with --threads 2, and a flag of one
// substrate given to the other (--sweep or --record-access with
// --substrate sparse_csr, --sparse-mode with the dense field).
// --substrate picks the gca algorithm's engine by name: dense (default) is
// the paper-faithful cell field, sparse_csr the O(m)-work CSR
// label-propagation engine the production Runner runs — labelings are
// bit-identical either way (DESIGN.md §12).
// --sweep sparse (default) sweeps only each generation's active region;
// --sweep dense sweeps the whole field every step (verification mode) —
// both produce bit-identical labels and logical statistics.  The field
// always runs its mediated per-cell rule.
// Resilience flags (gca algorithm only): --deadline-ms bounds the run's
// wall clock (expiry exits with status 3), --checkpoint-dir enables durable
// checkpoints (a relaunch resumes mid-algorithm), --retries N re-attempts
// a run that failed with detected corruption.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/hirschberg_ncells.hpp"
#include "core/hirschberg_tree.hpp"
#include "core/runner.hpp"
#include "gca/execution.hpp"
#include "gca/metrics.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/labeling.hpp"
#include "graph/union_find.hpp"
#include "pram/hirschberg.hpp"
#include "pram/shiloach_vishkin.hpp"

namespace {

using namespace gcalib;

graph::Graph load_graph(const CliArgs& args) {
  if (args.has("generate")) {
    const auto n = static_cast<graph::NodeId>(args.get_int("n", 16));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    return graph::make_named(args.get_string("generate", "gnp:0.1"), n, seed);
  }
  const std::string format = args.get_string("format", "edges");
  std::istream* in = &std::cin;
  std::ifstream file;
  if (!args.positional().empty()) {
    file.open(args.positional().front());
    if (!file) {
      throw std::runtime_error("cannot open " + args.positional().front());
    }
    in = &file;
  }
  if (format == "edges") return graph::read_edge_list(*in);
  if (format == "dimacs") return graph::read_dimacs(*in);
  if (format == "matrix") {
    std::stringstream buffer;
    buffer << in->rdbuf();
    return graph::parse_matrix(buffer.str());
  }
  throw std::runtime_error("unknown format: " + format);
}

struct LabelingOutcome {
  std::vector<graph::NodeId> labels;
  std::size_t steps = 0;       ///< generations / PRAM steps (0 = n/a)
  std::size_t congestion = 0;  ///< max read congestion (0 = n/a)
};

/// The engine-backed "gca" algorithm on the CSR engine: runs through the
/// Runner for the same retry / deadline / recovered-note semantics the
/// dense path implements by hand below.
LabelingOutcome run_gca_sparse(const graph::Graph& g,
                               const cli::EngineFlags& exec,
                               const gca::EngineOptions& engine,
                               gca::Trace* trace) {
  core::RunnerOptions options;
  options.threads = engine.threads;
  options.sparse_mode = engine.sparse_mode;
  options.instrument = engine.instrumentation;
  options.sink = trace;
  options.deadline_ms = exec.deadline_ms;
  options.retries = exec.retries;
  // Durable GSKP checkpoints (DESIGN.md §15): the sparse engine honours
  // --checkpoint-dir with the same resume/cleanup semantics as the field.
  options.checkpoint_dir = exec.checkpoint_dir;
  const core::Runner runner(options);
  const core::QueryOutcome outcome = runner.try_solve(g);
  if (!outcome.ok()) {
    if (outcome.status.code == StatusCode::kDeadlineExceeded) {
      throw gca::DeadlineExceeded(outcome.status.message);
    }
    throw std::runtime_error(outcome.status.message);
  }
  if (outcome.recovered()) {
    std::fprintf(stderr, "note: recovered on attempt %u\n", outcome.attempts);
  }
  if (outcome.result.resumed) {
    std::fprintf(stderr,
                 "note: resumed from durable sparse checkpoint at round %u\n",
                 outcome.result.resume_round);
  }
  LabelingOutcome out;
  out.labels = outcome.result.labels;
  out.steps = outcome.result.generations;
  for (const gca::GenerationStats& stats : outcome.result.sweeps) {
    out.congestion = std::max(out.congestion, stats.max_congestion);
  }
  return out;
}

LabelingOutcome run_algorithm(const std::string& name, const graph::Graph& g,
                              bool sparse_csr, const cli::EngineFlags& exec,
                              const gca::EngineOptions& engine,
                              gca::Trace* trace) {
  LabelingOutcome out;
  if (name == "gca") {
    if (sparse_csr) return run_gca_sparse(g, exec, engine, trace);
    core::RunOptions options;
    options.instrument = exec.instrumentation;
    options.threads = exec.threads;
    options.sweep = gca::parse_sweep_mode(exec.sweep);
    options.record_access = exec.record_access;
    options.sink = trace;
    options.deadline_ms = exec.deadline_ms;
    options.checkpoint_dir = exec.checkpoint_dir;
    // Bounded retry on detected corruption (DESIGN.md §10): a fresh machine
    // re-derives everything from the input graph, so a transient upset need
    // not kill the invocation.  Deadline expiry is final — no retry.
    core::RunResult r;
    for (unsigned attempt = 0;; ++attempt) {
      try {
        core::HirschbergGca machine(g);
        r = machine.run(options);
        if (attempt > 0) {
          std::fprintf(stderr, "note: recovered on attempt %u\n", attempt + 1);
        }
        break;
      } catch (const ContractViolation& failure) {
        if (attempt >= exec.retries) throw;
        std::fprintf(stderr, "attempt %u failed (%s); retrying\n", attempt + 1,
                     failure.what());
      }
    }
    out.labels = r.labels;
    out.steps = r.generations;
    if (r.resumed) {
      std::fprintf(stderr, "note: resumed from durable checkpoint at iteration %u\n",
                   r.resume_iteration);
    }
    for (const core::StepRecord& record : r.records) {
      out.congestion = std::max(out.congestion, record.stats.max_congestion);
    }
  } else if (name == "tree") {
    core::HirschbergGcaTree machine(g);
    const core::TreeRunResult r = machine.run(exec.instrumentation);
    out.labels = r.labels;
    out.steps = r.generations;
    out.congestion =
        std::max(r.static_max_congestion, r.dynamic_max_congestion);
  } else if (name == "ncells") {
    const core::NCellRunResult r = core::hirschberg_ncells(g);
    out.labels = r.labels;
    out.steps = r.generations;
    out.congestion = r.max_congestion;
  } else if (name == "pram") {
    const pram::HirschbergPramResult r = pram::run_hirschberg_pram(g);
    out.labels = r.labels;
    out.steps = r.stats.steps;
    out.congestion = r.stats.max_read_congestion;
  } else if (name == "sv") {
    const pram::ShiloachVishkinPramResult r = pram::run_shiloach_vishkin_pram(g);
    out.labels = r.labels;
    out.steps = r.stats.steps;
    out.congestion = r.stats.max_read_congestion;
  } else if (name == "unionfind") {
    out.labels = graph::union_find_components(g);
  } else if (name == "bfs") {
    out.labels = graph::bfs_components(g);
  } else {
    throw std::runtime_error("unknown algorithm: " + name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse_or_exit(
        argc, argv,
        cli::with_engine_flags({{"format", true},
                                   {"algorithm", true},
                                   {"generate", true},
                                   {"n", true},
                                   {"seed", true},
                                   {"substrate", true},
                                   {"stats", false},
                                   {"quiet", false},
                                   {"verify", false}}));
    const graph::Graph g = load_graph(args);
    const std::string algorithm = args.get_string("algorithm", "gca");
    const cli::EngineFlags exec = cli::engine_flags(args);
    // Reject bad combos before the run — the shared exit-2 surface.
    const gca::EngineOptions engine = gca::options_from_flags_or_exit(exec);
    const std::string substrate = args.get_string("substrate", "dense");
    if (substrate != "dense" && substrate != "sparse_csr") {
      std::fprintf(stderr,
                   "error: unknown substrate '%s' (expected dense | "
                   "sparse_csr)\n",
                   substrate.c_str());
      return 2;
    }
    if (substrate == "sparse_csr" && exec.record_access) {
      std::fprintf(stderr,
                   "error: --record-access records the dense field's reads; "
                   "the sparse_csr substrate has none\n");
      return 2;
    }
    if (substrate == "sparse_csr" && args.has("sweep")) {
      std::fprintf(stderr,
                   "error: --sweep picks how the dense field sweeps; the "
                   "sparse_csr substrate has no field\n");
      return 2;
    }
    if (substrate == "dense" && args.has("sparse-mode")) {
      std::fprintf(stderr,
                   "error: --sparse-mode picks the CSR engine; the dense "
                   "substrate runs the cell field\n");
      return 2;
    }
    gca::Trace trace;
    const LabelingOutcome outcome =
        run_algorithm(algorithm, g, substrate == "sparse_csr", exec, engine,
                      exec.wants_metrics() ? &trace : nullptr);

    if (args.has("verify")) {
      if (outcome.labels != graph::union_find_components(g)) {
        std::fprintf(stderr, "VERIFICATION FAILED: %s disagrees with union-find\n",
                     algorithm.c_str());
        return 2;
      }
      std::printf("verified against union-find: ok\n");
    }

    if (!args.has("quiet")) {
      std::printf("node label\n");
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        std::printf("%u %u\n", v, outcome.labels[v]);
      }
    }

    std::printf("# graph: n=%u m=%zu density=%s\n", g.node_count(),
                g.edge_count(), fixed(g.density(), 4).c_str());
    std::printf("# algorithm: %s\n", algorithm.c_str());
    std::printf("# components: %zu\n", graph::component_count(outcome.labels));
    if (args.has("stats") && outcome.steps > 0) {
      std::printf("# synchronous steps: %zu\n", outcome.steps);
      std::printf("# max read congestion: %zu\n", outcome.congestion);
    }
    if (exec.wants_metrics()) {
      if (!exec.trace_out.empty()) gca::write_trace_file(trace, exec.trace_out);
      if (!exec.metrics_out.empty()) {
        gca::write_metrics_file(trace, exec.metrics_out);
      }
      // Only the engine-backed algorithm ("gca") feeds the sink; the files
      // are still written (empty but valid) for the others.
      const std::string summary = gca::format_summary(trace.summary());
      std::size_t pos = 0;
      while (pos < summary.size()) {
        std::size_t end = summary.find('\n', pos);
        if (end == std::string::npos) end = summary.size();
        std::printf("# %.*s\n", static_cast<int>(end - pos),
                    summary.c_str() + pos);
        pos = end + 1;
      }
    }
    return 0;
  } catch (const gca::DeadlineExceeded& e) {
    std::fprintf(stderr, "deadline exceeded: %s\n", e.what());
    return 3;
  } catch (const graph::BadGraphSpec& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
