// Quickstart: build a graph, run Hirschberg's algorithm on the GCA, and
// inspect what the machine did.
//
//   $ ./quickstart
//
// Walks through the three levels of the public API:
//   1. one-call labeling (core::gca_components),
//   2. a full run with statistics (core::HirschbergGca::run),
//   3. manual generation stepping with field snapshots.
#include <cstdio>

#include "core/hirschberg_gca.hpp"
#include "core/schedule.hpp"
#include "core/state_graph.hpp"
#include "gca/trace.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"

int main() {
  using namespace gcalib;

  // A small graph: two squares and an isolated pair.
  //   0-1-2-3-0   4-5-6-7-4   8-9
  const graph::Graph g = graph::Graph::from_edges(
      10, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4},
           {8, 9}});

  // ---- level 1: one call --------------------------------------------
  const std::vector<graph::NodeId> labels = core::gca_components(g);
  std::printf("components (min-id labels): ");
  for (graph::NodeId l : labels) std::printf("%u ", l);
  std::printf("\n%zu components found\n\n", graph::component_count(labels));

  // ---- level 2: a run with statistics --------------------------------
  core::HirschbergGca machine(g);
  const core::RunResult result = machine.run();
  std::printf("n = %u -> %u outer iterations, %zu generations (formula: %zu)\n",
              machine.n(), result.iterations, result.generations,
              core::total_generations(machine.n()));

  std::size_t worst_congestion = 0;
  for (const core::StepRecord& record : result.records) {
    worst_congestion = std::max(worst_congestion, record.stats.max_congestion);
  }
  std::printf("worst read congestion over the whole run: %zu\n\n",
              worst_congestion);

  // ---- level 3: manual stepping ---------------------------------------
  std::printf("stepping generations 0..2 by hand (D field after each):\n\n");
  core::HirschbergGca manual(g);
  manual.initialize();
  for (core::Generation gen :
       {core::Generation::kCopyCToRows, core::Generation::kMaskNeighbors}) {
    manual.step_generation(gen);
    std::printf("%s:\n%s\n", core::generation_label(gen, 0).c_str(),
                gca::render_numeric_field(manual.geometry(), manual.d_snapshot(),
                                          core::kInfData)
                    .c_str());
  }
  std::printf("(rows of the square now hold the masked C candidates whose\n"
              " row-minimum becomes T in the next generation)\n");
  return 0;
}
