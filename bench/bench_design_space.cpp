// Quantifies the section-3 design decision "between n and n^2 cells" by
// running all three executable machines side by side:
//   * the paper's n(n+1)-cell machine (O(log^2 n) generations),
//   * the congestion-1 tree variant (constant factor more generations),
//   * the n-cell alternative (O(n log n) generations, maximal congestion n).
//
// Usage: bench_design_space [--sweep "4,8,16,32,64"] [--family gnp:0.3]
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/hirschberg_ncells.hpp"
#include "core/hirschberg_tree.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"

int main(int argc, char** argv) try {
  using namespace gcalib;
  const CliArgs args = CliArgs::parse_or_exit(
      argc, argv, {{"sweep", true}, {"family", true}, {"seed", true}});
  const std::string family = args.get_string("family", "gnp:0.3");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::printf("Design space: n^2 cells vs tree variant vs n cells (section 3)\n");
  std::printf("graph family: %s\n\n", family.c_str());

  TextTable table({"n", "machine", "cells", "generations", "max congestion",
                   "labels ok"});
  table.set_align(1, Align::kLeft);
  for (std::size_t n : args.get_count_list("sweep", {4, 8, 16, 32, 64})) {
    const graph::Graph g =
        graph::make_named(family, static_cast<graph::NodeId>(n), seed);
    const std::vector<graph::NodeId> oracle = graph::union_find_components(g);

    core::HirschbergGca square(g);
    const core::RunResult square_run = square.run();
    std::size_t square_congestion = 0;
    for (const core::StepRecord& r : square_run.records) {
      square_congestion = std::max(square_congestion, r.stats.max_congestion);
    }
    table.add_row({std::to_string(n), "n^2 cells (paper)",
                   with_commas(n * (n + 1)),
                   std::to_string(square_run.generations),
                   std::to_string(square_congestion),
                   square_run.labels == oracle ? "yes" : "NO"});

    core::HirschbergGcaTree tree(g);
    const core::TreeRunResult tree_run = tree.run();
    table.add_row(
        {std::to_string(n), "tree variant", with_commas(n * (n + 1)),
         std::to_string(tree_run.generations),
         std::to_string(std::max(tree_run.static_max_congestion,
                                 tree_run.dynamic_max_congestion)),
         tree_run.labels == oracle ? "yes" : "NO"});

    const core::NCellRunResult ncell_run = core::hirschberg_ncells(g);
    table.add_row({std::to_string(n), "n cells", with_commas(n),
                   std::to_string(ncell_run.generations),
                   std::to_string(ncell_run.max_congestion),
                   ncell_run.labels == oracle ? "yes" : "NO"});
    table.add_rule();
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nreading: the n-cell machine saves a factor n in cells but pays a\n"
      "factor ~n/log(n) in generations at full congestion — with cheap GCA\n"
      "cells and unavoidable O(n^2) state, the paper picks n^2 cells.\n");
  return 0;
} catch (const gcalib::graph::BadGraphSpec& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
