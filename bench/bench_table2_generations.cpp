// Reproduces Table 2 (generations per step of the reference algorithm) and
// the total-generation formula 1 + log(n) * (3 log(n) + 8) of section 3,
// comparing the closed forms against *measured* generation counts of real
// instrumented runs over a sweep of problem sizes.
//
// Usage: bench_table2_generations [--n 16] [--sweep "4,8,16,32,64,128"]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/schedule.hpp"
#include "core/state_graph.hpp"
#include "graph/generators.hpp"

namespace {

using gcalib::core::Generation;
using gcalib::core::StepRecord;

}  // namespace

int main(int argc, char** argv) {
  const gcalib::CliArgs args =
      gcalib::CliArgs::parse_or_exit(argc, argv, {{"n", true}, {"sweep", true}});
  const auto n = static_cast<gcalib::graph::NodeId>(args.get_int("n", 16));

  // --- Table 2 proper: generations per step at the chosen n -------------
  std::printf("Table 2 reproduction — generations per algorithm step (n = %u)\n\n",
              n);
  const gcalib::graph::Graph g = gcalib::graph::complete(n);
  const gcalib::core::RunResult run = gcalib::core::HirschbergGca(g).run();

  // Measured generations per paper step, first iteration.
  std::map<int, std::size_t> measured;
  for (const StepRecord& record : run.records) {
    if (record.id.iteration == 0) {
      ++measured[gcalib::core::paper_step(record.id.generation)];
    }
  }
  const auto formula = gcalib::core::generations_per_step(n);
  const char* paper_text[] = {"1",
                              "1 + log(n) + 1 + 1",
                              "1 + log(n) + 1 + 1",
                              "1",
                              "log(n)",
                              "1"};

  gcalib::TextTable table({"step", "paper formula", "closed form", "measured"});
  table.set_align(1, gcalib::Align::kLeft);
  for (int step = 1; step <= 6; ++step) {
    table.add_row({std::to_string(step), paper_text[step - 1],
                   std::to_string(formula[static_cast<std::size_t>(step - 1)]),
                   std::to_string(measured[step])});
  }
  std::fputs(table.render().c_str(), stdout);

  // --- Total-generation sweep -------------------------------------------
  std::printf("\nTotal generations: 1 + log(n) * (3 log(n) + 8)\n\n");
  gcalib::TextTable sweep({"n", "log2(n)", "formula", "measured", "iterations"});
  for (std::size_t size :
       args.get_count_list("sweep", {4, 8, 16, 32, 64, 128})) {
    const gcalib::graph::Graph gs =
        gcalib::graph::complete(static_cast<gcalib::graph::NodeId>(size));
    gcalib::core::RunOptions options;
    options.instrument = false;
    const gcalib::core::RunResult r = gcalib::core::HirschbergGca(gs).run(options);
    sweep.add_row({std::to_string(size),
                   std::to_string(gcalib::core::subgeneration_count(size)),
                   std::to_string(gcalib::core::total_generations(size)),
                   std::to_string(r.generations),
                   std::to_string(r.iterations)});
  }
  std::fputs(sweep.render().c_str(), stdout);
  std::printf("\nTime bound O(log^2 n) on n(n+1) cells — paper section 3.\n");
  return 0;
}
