// Ablation of the section-4 congestion-reduction strategies: serve
// concurrent reads serially, through a fan-out tree, or by replicating the
// C/T arrays per row (congestion 1, extended cells everywhere).
//
// Usage: bench_congestion_reduction [--sweep "4,8,16,32,64"] [--family complete]
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/hirschberg_tree.hpp"
#include "graph/generators.hpp"
#include "hw/replication.hpp"

int main(int argc, char** argv) try {
  using namespace gcalib;
  const CliArgs args = CliArgs::parse_or_exit(
      argc, argv, {{"sweep", true}, {"family", true}, {"seed", true}});
  const std::string family = args.get_string("family", "complete");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::printf("Congestion-reduction ablation (paper section 4)\n");
  std::printf("strategies: serialized reads / fan-out tree / replicated C,T\n");
  std::printf("graph family: %s\n\n", family.c_str());

  TextTable table({"n", "generations", "strategy", "cycles", "overhead",
                   "extra ext. cells", "extra LEs"});
  table.set_align(2, Align::kLeft);
  for (std::size_t n : args.get_count_list("sweep", {4, 8, 16, 32, 64})) {
    const graph::Graph g =
        graph::make_named(family, static_cast<graph::NodeId>(n), seed);
    core::HirschbergGca machine(g);
    std::vector<gca::GenerationStats> profile;
    for (const core::StepRecord& r : machine.run().records) {
      profile.push_back(r.stats);
    }
    for (const hw::StrategyCost& cost : hw::compare_strategies(profile, n)) {
      table.add_row({std::to_string(n), std::to_string(cost.generations),
                     hw::to_string(cost.strategy),
                     std::to_string(cost.total_cycles),
                     fixed(cost.overhead_factor, 2) + "x",
                     std::to_string(cost.extra_extended_cells),
                     with_commas(cost.extra_logic_elements)});
    }
    table.add_rule();
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nreading: replication always reaches 1 cycle/generation (the paper's\n"
      "\"congestion down to 1\") but needs extended cells in all places;\n"
      "the fan-out tree trades a log(delta) slowdown for ~zero area.\n\n");

  // ---- executable tree variant (not just the model) --------------------
  std::printf(
      "Executable tree-broadcast machine (core::HirschbergGcaTree): every\n"
      "static read realised with congestion 1 by doubling steps; measured:\n\n");
  TextTable tree_table({"n", "baseline gens", "tree gens", "ratio",
                        "static max d (base)", "static max d (tree)",
                        "dynamic max d"});
  for (std::size_t n : args.get_count_list("sweep", {4, 8, 16, 32, 64})) {
    const graph::Graph g =
        graph::make_named(family, static_cast<graph::NodeId>(n), seed);

    core::HirschbergGca baseline(g);
    std::size_t base_static = 0;
    const core::RunResult base_run = baseline.run();
    for (const core::StepRecord& r : base_run.records) {
      if (r.id.generation != core::Generation::kPointerJump &&
          r.id.generation != core::Generation::kFinalMin) {
        base_static = std::max(base_static, r.stats.max_congestion);
      }
    }

    core::HirschbergGcaTree tree(g);
    const core::TreeRunResult tree_run = tree.run();
    tree_table.add_row(
        {std::to_string(n), std::to_string(base_run.generations),
         std::to_string(tree_run.generations),
         fixed(static_cast<double>(tree_run.generations) /
                   static_cast<double>(base_run.generations),
               2) + "x",
         std::to_string(base_static),
         std::to_string(tree_run.static_max_congestion),
         std::to_string(tree_run.dynamic_max_congestion)});
  }
  std::fputs(tree_table.render().c_str(), stdout);
  std::printf(
      "\nreading: the tree machine pays ~2-3x more generations but every\n"
      "static generation completes in one cycle on single-ported cells.\n");
  return 0;
} catch (const gcalib::graph::BadGraphSpec& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
