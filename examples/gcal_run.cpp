// gcal_run — execute a gcal rule-description file on a graph.
//
//   $ ./gcal_run program.gcal --generate gnp:0.2 --n 16
//   $ ./gcal_run --builtin hirschberg --generate complete --n 8 --verify
//   $ ./gcal_run --builtin hirschberg --n 64 --threads 4
//   $ ./gcal_run --builtin hirschberg --n 64 --trace-out run.trace.json
//   $ ./gcal_run --builtin hirschberg --n 256 --deadline-ms 500
//   $ ./gcal_run --show-builtin          # print the embedded program
//
// --deadline-ms bounds the run's wall clock (expiry exits with status 3).
// Durable checkpoints cover the native Hirschberg machine only, so
// --checkpoint-dir is an unknown option here (exit 64).
//
// gcal is the paper's Figure-2 state graph as a language; see
// src/gcal/interpreter.hpp for the reference.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "gca/cancel.hpp"
#include "gca/execution.hpp"
#include "gca/metrics.hpp"
#include "gcal/interpreter.hpp"
#include "gcal/parser.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "graph/union_find.hpp"

int main(int argc, char** argv) {
  using namespace gcalib;
  try {
    std::map<std::string, bool> spec =
        cli::with_engine_flags({{"generate", true},
                                {"n", true},
                                {"seed", true},
                                {"builtin", true},
                                {"show-builtin", false},
                                {"verify", false},
                                {"trace", false}});
    spec.erase("checkpoint-dir");
    const CliArgs args = CliArgs::parse_or_exit(argc, argv, spec);
    if (args.has("show-builtin")) {
      std::fputs(gcal::hirschberg_gcal_source().c_str(), stdout);
      return 0;
    }

    std::string source;
    if (args.has("builtin")) {
      const std::string name = args.get_string("builtin", "hirschberg");
      if (name != "hirschberg") {
        throw std::runtime_error("unknown builtin program: " + name);
      }
      source = gcal::hirschberg_gcal_source();
    } else {
      if (args.positional().empty()) {
        throw std::runtime_error(
            "usage: gcal_run <file.gcal> [--generate FAMILY --n N] | "
            "--builtin hirschberg | --show-builtin");
      }
      std::ifstream file(args.positional().front());
      if (!file) {
        throw std::runtime_error("cannot open " + args.positional().front());
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      source = buffer.str();
    }

    const auto n = static_cast<graph::NodeId>(args.get_int("n", 8));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const graph::Graph g =
        graph::make_named(args.get_string("generate", "gnp:0.25"), n, seed);

    const gcal::Program program = gcal::parse(source);
    std::printf("program '%s': %zu prologue + %zu loop generations\n",
                program.name.c_str(), program.prologue.size(),
                program.loop.size());

    gcal::Interpreter interpreter(program);
    gcal::Interpreter::GenerationHook hook;
    if (args.has("trace")) {
      hook = [](const std::string& label, const std::vector<std::uint64_t>&) {
        std::printf("  executed %s\n", label.c_str());
      };
    }
    const cli::EngineFlags flags = cli::engine_flags(args);
    const gca::EngineOptions exec = gca::options_from_flags_or_exit(flags);
    gca::Trace trace;
    const gcal::GcalRunResult result =
        interpreter.run(g, hook, exec, flags.wants_metrics() ? &trace : nullptr,
                        flags.deadline_ms);

    std::printf("graph: n=%u m=%zu\n", g.node_count(), g.edge_count());
    std::printf("generations executed: %zu (iterations: %u)\n",
                result.generations, result.iterations);
    std::printf("max read congestion: %zu\n", result.max_congestion);
    std::printf("labels:");
    for (graph::NodeId label : result.labels) std::printf(" %u", label);
    std::printf("\ncomponents: %zu\n", graph::component_count(result.labels));

    if (flags.wants_metrics()) {
      if (!flags.trace_out.empty()) {
        gca::write_trace_file(trace, flags.trace_out);
      }
      if (!flags.metrics_out.empty()) {
        gca::write_metrics_file(trace, flags.metrics_out);
      }
      std::fputs(gca::format_summary(trace.summary()).c_str(), stdout);
    }

    if (args.has("verify")) {
      if (result.labels != graph::union_find_components(g)) {
        std::fprintf(stderr, "VERIFICATION FAILED\n");
        return 2;
      }
      std::printf("verified against union-find: ok\n");
    }
    return 0;
  } catch (const gca::DeadlineExceeded& e) {
    std::fprintf(stderr, "deadline exceeded: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
