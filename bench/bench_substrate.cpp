// bench_substrate — dense field vs CSR engine across graph scales and
// thread counts.
//
// Characterises the substrate redesign (DESIGN.md §12) and the CSR
// engines (DESIGN.md §14): for a ladder of random graphs from a few
// hundred to a million edges, times the sync hook + jump reference at
// every thread count in the sweep, the production link pass (one lane),
// and — where an O(n^2) field is tractable — the dense paper machine on
// the same input, and reports a machine-readable JSON series
// (scripts/bench_substrate.sh wraps this and writes BENCH_substrate.json).
// Each rung carries a per-thread time series plus speedup-vs-sequential
// columns; a null dense_ms always carries the explicit reason it was
// skipped.
//
// Graphs above the dense ceiling never materialise a dense representation
// at all: edges are sampled directly into `CsrGraph::from_edges`, which is
// the point of the CSR-native path.
//
//   $ ./bench_substrate [--max-edges 1000000 --threads 1,2,4,8 --reps 3
//                        --seed 1 --out BENCH_substrate.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace {

using namespace gcalib;
using Clock = std::chrono::steady_clock;

/// One rung of the scale ladder.
struct Case {
  graph::NodeId n;
  std::size_t target_edges;
};

/// Largest n the dense (n+1) x n field is still benchmarked at.
constexpr graph::NodeId kDenseCeiling = 1024;

graph::CsrGraph sample_graph(graph::NodeId n, std::size_t target_edges,
                             std::uint64_t seed) {
  // Random endpoint pairs; self loops and duplicates are dropped by the
  // CSR builder, so the realised edge count lands slightly under target on
  // dense rungs — the report carries the realised count.
  Xoshiro256 rng(seed);
  std::vector<graph::Edge> edges;
  edges.reserve(target_edges);
  for (std::size_t i = 0; i < target_edges; ++i) {
    const auto u = static_cast<graph::NodeId>(rng() % n);
    const auto v = static_cast<graph::NodeId>(rng() % n);
    if (u == v) continue;
    edges.push_back({u, v});
  }
  return graph::CsrGraph::from_edges(n, edges);
}

double best_solve_ms(const core::CcSolver& solver,
                     const core::SolverInput& input, unsigned threads,
                     gca::SparseMode mode, int reps) {
  core::RunOptions options;
  options.instrument = false;
  options.sparse_mode = mode;
  options.threads = threads;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const core::QueryResult result = solver.solve(input, options);
    const auto stop = Clock::now();
    if (result.labels.size() != input.node_count()) std::abort();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// "1,2,4,8" -> {1, 2, 4, 8}; always returns at least {1} and always
/// includes 1 (the sequential baseline every speedup column divides by).
std::vector<unsigned> parse_thread_list(const std::string& spec) {
  std::vector<unsigned> threads;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) {
      const long value = std::stol(item);
      if (value >= 1) threads.push_back(static_cast<unsigned>(value));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (threads.empty()) threads.push_back(1);
  bool has_one = false;
  for (const unsigned t : threads) has_one = has_one || t == 1;
  if (!has_one) threads.insert(threads.begin(), 1);
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse_or_exit(argc, argv,
                                              {{"max-edges", true},
                                               {"threads", true},
                                               {"reps", true},
                                               {"seed", true},
                                               {"out", true}});
  const auto max_edges =
      static_cast<std::size_t>(args.get_int("max-edges", 1'000'000));
  const std::vector<unsigned> thread_sweep =
      parse_thread_list(args.get_string("threads", "1,2,4,8"));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string out_path = args.get_string("out", "BENCH_substrate.json");
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  const Case ladder[] = {
      {256, 1'024},        {1'024, 4'096},     {4'096, 16'384},
      {16'384, 65'536},    {65'536, 262'144},  {262'144, 524'288},
      {524'288, 1'000'000},
  };

  std::string json = "{\n  \"benchmark\": \"substrate\",\n";
  json += "  \"hardware_threads\": " + std::to_string(hardware_threads) +
          ",\n  \"thread_sweep\": [";
  for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
    if (i > 0) json += ", ";
    json += std::to_string(thread_sweep[i]);
  }
  json += "],\n  \"series\": [\n";
  bool first = true;
  for (const Case& c : ladder) {
    if (c.target_edges > max_edges) continue;
    const graph::CsrGraph csr = sample_graph(c.n, c.target_edges, seed);
    const core::SolverInput input(csr);

    // Per-thread series of the sync reference; threads = 1 is what every
    // speedup column is measured against.  The link pass runs on one lane.
    constexpr auto kSync = gca::SparseMode::kSync;
    std::vector<double> sparse_ms(thread_sweep.size(), 0.0);
    double seq_ms = 0.0;
    for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
      sparse_ms[i] = best_solve_ms(core::sparse_cc_solver(), input,
                                   thread_sweep[i], kSync, reps);
      if (thread_sweep[i] == 1) seq_ms = sparse_ms[i];
    }
    const double link_ms = best_solve_ms(core::sparse_cc_solver(), input, 1,
                                         gca::SparseMode::kAuto, reps);

    double dense_ms = -1.0;
    std::string dense_skip_reason;
    if (c.n <= kDenseCeiling) {
      // The dense machine needs the adjacency-matrix representation; the
      // conversion happens outside the timed region.
      const graph::Graph dense_graph = csr.to_graph();
      dense_ms = best_solve_ms(core::dense_cc_solver(),
                               core::SolverInput(dense_graph), 1, kSync, reps);
    } else {
      dense_skip_reason =
          "n = " + std::to_string(csr.node_count()) +
          " exceeds the dense ceiling (" + std::to_string(kDenseCeiling) +
          "): the O(n^2) field is intractable at this scale";
    }

    std::printf("n=%7u m=%8zu ", csr.node_count(), csr.edge_count());
    for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
      std::printf(" x%u %9.3f ms", thread_sweep[i], sparse_ms[i]);
      if (thread_sweep[i] > 1 && sparse_ms[i] > 0.0) {
        std::printf(" (%.2fx)", seq_ms / sparse_ms[i]);
      }
    }
    std::printf("  link %9.3f ms", link_ms);
    if (dense_ms >= 0.0) {
      std::printf("  dense %10.3f ms  (%.1fx)", dense_ms,
                  seq_ms > 0.0 ? dense_ms / seq_ms : 0.0);
    }
    std::printf("\n");

    if (!first) json += ",\n";
    first = false;
    json += "    {\"n\": " + std::to_string(csr.node_count()) +
            ", \"edges\": " + std::to_string(csr.edge_count());
    json += ", \"sparse_ms\": {";
    for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
      if (i > 0) json += ", ";
      json += '"';
      json += std::to_string(thread_sweep[i]);
      json += "\": ";
      json += std::to_string(sparse_ms[i]);
    }
    json += "}, \"speedup\": {";
    bool first_speedup = true;
    for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
      if (thread_sweep[i] == 1) continue;
      if (!first_speedup) json += ", ";
      first_speedup = false;
      json += '"';
      json += std::to_string(thread_sweep[i]);
      json += "\": ";
      json += std::to_string(sparse_ms[i] > 0.0 ? seq_ms / sparse_ms[i] : 0.0);
    }
    json += "}, \"sparse_seq_ms\": " + std::to_string(seq_ms) +
            ", \"link_ms\": " + std::to_string(link_ms);
    if (dense_ms >= 0.0) {
      json += ", \"dense_ms\": " + std::to_string(dense_ms) +
              ", \"dense_over_sparse\": " +
              std::to_string(seq_ms > 0.0 ? dense_ms / seq_ms : 0.0);
    } else {
      // A null measurement without a reason is indistinguishable from a
      // bug in the harness; the skip is always explained in-band.
      json += ", \"dense_ms\": null, \"dense_skip_reason\": \"" +
              dense_skip_reason + "\"";
    }
    json += "}";
  }
  json += "\n  ]\n}\n";

  std::ofstream out(out_path);
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return out.good() ? 0 : 1;
}
