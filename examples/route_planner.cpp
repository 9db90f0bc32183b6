// Route planner: all-pairs travel times over a synthetic road network,
// computed by min-plus matrix powering on the GCA (core/apsp.hpp), checked
// against Floyd–Warshall, with a CSV export for downstream tooling.
//
//   $ ./route_planner [--towns 24 --extra-roads 12 --seed 4] [--csv out.csv]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/apsp.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace gcalib;
  const CliArgs args = CliArgs::parse_or_exit(argc, argv,
                                      {{"towns", true},
                                       {"extra-roads", true},
                                       {"seed", true},
                                       {"csv", true}});
  const auto towns = static_cast<graph::NodeId>(args.get_int("towns", 24));
  const auto extra = static_cast<std::size_t>(args.get_int("extra-roads", 12));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4));

  // Road network: a random spanning tree (every town reachable) plus some
  // extra shortcut roads; travel times 5..60 minutes.
  std::vector<graph::Edge> road_list = graph::random_tree(towns, seed).edges();
  std::set<graph::Edge> built(road_list.begin(), road_list.end());
  Xoshiro256 rng(seed * 31 + 7);
  while (built.size() < road_list.size() + extra) {
    const auto u = static_cast<graph::NodeId>(rng.below(towns));
    const auto v = static_cast<graph::NodeId>(rng.below(towns));
    if (u != v) built.insert({std::min(u, v), std::max(u, v)});
  }
  const graph::Graph roads = graph::Graph::from_edges(
      towns, std::vector<graph::Edge>(built.begin(), built.end()));
  core::DistMatrix times(towns);
  for (const graph::Edge& e : roads.edges()) {
    const auto minutes = static_cast<core::Dist>(5 + rng.below(56));
    times.set(e.u, e.v, minutes);
    times.set(e.v, e.u, minutes);
  }

  std::printf("road network: %u towns, %zu roads\n", towns, roads.edge_count());

  const core::ApspRunResult result = core::apsp_gca(times);
  if (result.distances != core::apsp_floyd_warshall(times)) {
    std::fprintf(stderr, "GCA and Floyd-Warshall disagree — bug!\n");
    return 1;
  }
  std::printf("all-pairs travel times computed in %zu GCA generations "
              "(max congestion %zu)\n\n",
              result.generations, result.max_congestion);

  // Report: the most remote town pairs and each town's eccentricity.
  core::Dist worst = 0;
  std::size_t worst_u = 0, worst_v = 0;
  std::vector<core::Dist> eccentricity(towns, 0);
  for (graph::NodeId u = 0; u < towns; ++u) {
    for (graph::NodeId v = 0; v < towns; ++v) {
      const core::Dist d = result.distances.at(u, v);
      eccentricity[u] = std::max(eccentricity[u], d);
      if (d > worst && d < core::kUnreachable) {
        worst = d;
        worst_u = u;
        worst_v = v;
      }
    }
  }
  std::printf("network diameter: %lld minutes (town %zu -> town %zu)\n",
              static_cast<long long>(worst), worst_u, worst_v);

  TextTable table({"town", "eccentricity [min]"});
  for (graph::NodeId u = 0; u < std::min<graph::NodeId>(towns, 8); ++u) {
    std::string town_name = "T";
    town_name += std::to_string(u);
    table.add_row({town_name,
                   std::to_string(static_cast<long long>(eccentricity[u]))});
  }
  std::fputs(table.render().c_str(), stdout);
  if (towns > 8) std::printf("(first 8 towns shown)\n");

  if (args.has("csv")) {
    CsvWriter csv({"from", "to", "minutes"});
    for (graph::NodeId u = 0; u < towns; ++u) {
      for (graph::NodeId v = 0; v < towns; ++v) {
        if (u == v) continue;
        csv.add_row({std::to_string(u), std::to_string(v),
                     std::to_string(static_cast<long long>(
                         result.distances.at(u, v)))});
      }
    }
    const std::string path = args.get_string("csv", "routes.csv");
    std::ofstream out(path);
    out << csv.render();
    std::printf("\nwrote %zu rows to %s\n", csv.rows(), path.c_str());
  }
  return 0;
}
