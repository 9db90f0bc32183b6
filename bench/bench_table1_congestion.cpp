// Reproduces Table 1: per generation, the number of active cells, the
// number of cells with read access, and the congestion delta (concurrent
// read accesses per read cell).
//
// Usage: bench_table1_congestion [--n 16] [--family complete] [--seed 1]
//
// For each generation of the first outer iteration the bench prints the
// *measured* values from an instrumented run next to the paper's closed
// forms.  The paper's accounting excludes the reading cell itself in some
// rows (generation 9 is listed as delta = n-1 where we measure n+1, since
// every copy target is also read by itself and by its D_N mirror); these
// rows are marked with '*' and discussed in EXPERIMENTS.md.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/schedule.hpp"
#include "core/state_graph.hpp"
#include "graph/generators.hpp"

namespace {

using gcalib::core::Generation;
using gcalib::core::HirschbergGca;
using gcalib::core::StepRecord;

std::string classes_to_string(const std::map<std::size_t, std::size_t>& classes,
                              std::size_t unread) {
  std::vector<std::string> parts;
  for (const auto& [delta, cells] : classes) {
    parts.push_back(std::to_string(cells) + " cells @ d=" + std::to_string(delta));
  }
  if (unread > 0) parts.push_back(std::to_string(unread) + " @ d=0");
  return gcalib::join(parts, ", ");
}

std::string paper_row(Generation g, std::size_t n) {
  // The closed forms printed in Table 1 (first sub-generation for the
  // iterated generations).
  switch (g) {
    case Generation::kInit:
      return "n(n+1)=" + std::to_string(n * (n + 1)) + " active, no reads";
    case Generation::kCopyCToRows:
      return "n cells @ d=n+1=" + std::to_string(n + 1);
    case Generation::kMaskNeighbors:
      return "n cells @ d=n=" + std::to_string(n);
    case Generation::kRowMin:
    case Generation::kRowMin2:
      return "n^2/2 active, d=1";
    case Generation::kFallback:
    case Generation::kFallback2:
      return "n cells @ d=1";
    case Generation::kCopyTToRows:
      return "see gen 1 (square only)";
    case Generation::kMaskMembers:
      return "see gen 2";
    case Generation::kAdopt:
      return "n cells @ d=n-1 (*)";
    case Generation::kPointerJump:
      return "n cells @ d<=n (data dep.)";
    case Generation::kFinalMin:
      return "n cells @ d<=n (data dep.)";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) try {
  const gcalib::CliArgs args = gcalib::CliArgs::parse_or_exit(
      argc, argv, {{"n", true}, {"family", true}, {"seed", true}});
  const auto n = static_cast<gcalib::graph::NodeId>(args.get_int("n", 16));
  const std::string family = args.get_string("family", "complete");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const gcalib::graph::Graph g = gcalib::graph::make_named(family, n, seed);
  std::printf("Table 1 reproduction — active cells and congestion per generation\n");
  std::printf("graph: %s, n = %u, m = %zu\n\n", family.c_str(), n, g.edge_count());

  HirschbergGca machine(g);
  const gcalib::core::RunResult result = machine.run();

  gcalib::TextTable table({"step", "gen", "sub", "active", "cells read",
                           "max d", "congestion classes (measured)",
                           "paper (closed form)"});
  table.set_align(6, gcalib::Align::kLeft);
  table.set_align(7, gcalib::Align::kLeft);

  int last_step = 0;
  for (const StepRecord& record : result.records) {
    if (record.id.iteration > 0) break;  // Table 1 describes one iteration
    const Generation gen = record.id.generation;
    const int step = gcalib::core::paper_step(gen);
    if (step != last_step) {
      if (last_step != 0) table.add_rule();
      last_step = step;
    }
    table.add_row({
        std::to_string(step),
        std::to_string(static_cast<int>(gen)),
        gcalib::core::has_subgenerations(gen)
            ? std::to_string(record.id.subgeneration)
            : "-",
        std::to_string(record.stats.active_cells),
        std::to_string(record.stats.cells_read),
        std::to_string(record.stats.max_congestion),
        classes_to_string(record.stats.congestion_classes,
                          record.stats.cells_unread()),
        record.id.subgeneration == 0 ? paper_row(gen, n) : "\"",
    });
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\n(*) paper excludes the reading cell itself and the D_N mirror from\n"
      "    its count; our instrumentation counts every read access.\n");
  std::printf("\ntotal generations executed: %zu (formula: %zu)\n",
              result.generations, gcalib::core::total_generations(n));
  return 0;
} catch (const gcalib::graph::BadGraphSpec& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
