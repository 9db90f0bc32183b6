// Multiprocessor GCA architecture evaluation (paper reference [4]): how
// the Hirschberg machine performs when the cell field is partitioned over
// P processors connected by a bus, ring or crossbar — measured over the
// machine's real communication trace.
//
// Usage: bench_multiprocessor [--n 16] [--family complete] [--seed 1]
#include <cstdio>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "hw/multiproc.hpp"

int main(int argc, char** argv) try {
  using namespace gcalib;
  const CliArgs args = CliArgs::parse_or_exit(
      argc, argv, {{"n", true}, {"family", true}, {"seed", true}});
  const auto n = static_cast<graph::NodeId>(args.get_int("n", 16));
  const std::string family = args.get_string("family", "complete");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const graph::Graph g = graph::make_named(family, n, seed);

  std::printf("Multiprocessor GCA architecture (paper ref. [4])\n");
  std::printf("machine: Hirschberg field %ux%u, graph: %s\n\n", n + 1, n,
              family.c_str());

  // Baseline: one processor, no communication.
  hw::MultiprocConfig base;
  base.processors = 1;
  const hw::MultiprocResult sequential = hw::simulate_hirschberg(g, base);
  std::printf("P = 1 baseline: %s cycles (%zu generations)\n\n",
              with_commas(sequential.total_cycles()).c_str(),
              sequential.generations);

  TextTable table({"P", "partitioning", "network", "compute", "comm",
                   "messages", "total", "speedup"});
  table.set_align(1, Align::kLeft);
  table.set_align(2, Align::kLeft);
  for (std::size_t p : {2u, 4u, 8u, 16u}) {
    for (auto partitioning :
         {hw::Partitioning::kRowBlock, hw::Partitioning::kCyclic}) {
      for (auto network :
           {hw::Network::kBus, hw::Network::kRing, hw::Network::kCrossbar}) {
        hw::MultiprocConfig config;
        config.processors = p;
        config.partitioning = partitioning;
        config.network = network;
        const hw::MultiprocResult r = hw::simulate_hirschberg(g, config);
        table.add_row({std::to_string(p), hw::to_string(partitioning),
                       hw::to_string(network), with_commas(r.compute_cycles),
                       with_commas(r.comm_cycles), with_commas(r.messages),
                       with_commas(r.total_cycles()),
                       ratio(static_cast<double>(sequential.total_cycles()),
                             static_cast<double>(r.total_cycles()))});
      }
    }
    table.add_rule();
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nreading: row-block partitioning keeps the row-reduction traffic\n"
      "local; the bus saturates as P grows while ring/crossbar keep\n"
      "scaling — the communication structure of the GCA maps naturally\n"
      "onto the architecture of reference [4].\n");
  return 0;
} catch (const gcalib::graph::BadGraphSpec& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
