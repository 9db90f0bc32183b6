// Scaling characterisation (google-benchmark): wall-clock of the GCA
// simulator against the PRAM-hosted run and the sequential baselines over a
// sweep of problem sizes, plus the platform-independent quantities the
// paper actually reports (generations, congestion) as counters.
//
// The paper's section-3 claim is O(log^2 n) *generations* on n(n+1) cells;
// a software simulator pays O(n^2) work per generation, so wall-clock grows
// ~n^2 log^2 n while the 'generations' counter grows ~log^2 n.  The
// counters attached to each benchmark make that split visible.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/hirschberg_gca.hpp"
#include "core/schedule.hpp"
#include "gca/engine.hpp"
#include "gca/execution.hpp"
#include "gca/metrics.hpp"
#include "graph/cc_baselines.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "pram/hirschberg.hpp"
#include "pram/shiloach_vishkin.hpp"

namespace {

using gcalib::graph::Graph;
using gcalib::graph::NodeId;

Graph dense_graph(std::int64_t n) {
  // Dense regime: the case Hirschberg's algorithm is work-optimal for.
  return gcalib::graph::random_gnp(static_cast<NodeId>(n), 0.5,
                                   static_cast<std::uint64_t>(n));
}

void BM_GcaHirschberg(benchmark::State& state) {
  const Graph g = dense_graph(state.range(0));
  gcalib::core::RunOptions options;
  options.instrument = false;
  std::size_t generations = 0;
  for (auto _ : state) {
    gcalib::core::HirschbergGca machine(g);
    const auto result = machine.run(options);
    generations = result.generations;
    benchmark::DoNotOptimize(result.labels.data());
  }
  state.counters["generations"] = static_cast<double>(generations);
  state.counters["cells"] =
      static_cast<double>(state.range(0) * (state.range(0) + 1));
}
BENCHMARK(BM_GcaHirschberg)->RangeMultiplier(2)->Range(8, 256);

// --- sweep-mode comparison: whole-field vs active-region scheduling ------
//
// The work-efficiency headline of the sparse sweep: identical labels, but
// the engine only iterates each generation's ActiveRegion instead of
// sweeping all n(n+1) cells every step.  scripts/bench_engine.sh records both series and prints
// the sparse-over-dense speedup per n.

void gca_hirschberg_sweep(benchmark::State& state, gcalib::gca::SweepMode sweep,
                          unsigned threads) {
  const Graph g = dense_graph(state.range(0));
  gcalib::core::RunOptions options;
  options.instrument = false;
  options.sweep = sweep;
  options.threads = threads;
  for (auto _ : state) {
    gcalib::core::HirschbergGca machine(g);
    benchmark::DoNotOptimize(machine.run(options).labels.data());
  }
  state.counters["cells"] =
      static_cast<double>(state.range(0) * (state.range(0) + 1));
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_GcaHirschbergDense(benchmark::State& state) {
  gca_hirschberg_sweep(state, gcalib::gca::SweepMode::kDense, 1);
}
BENCHMARK(BM_GcaHirschbergDense)->RangeMultiplier(2)->Range(64, 512);

void BM_GcaHirschbergSparse(benchmark::State& state) {
  gca_hirschberg_sweep(state, gcalib::gca::SweepMode::kSparse, 1);
}
BENCHMARK(BM_GcaHirschbergSparse)->RangeMultiplier(2)->Range(64, 512);

void BM_GcaHirschbergDensePool(benchmark::State& state) {
  gca_hirschberg_sweep(state, gcalib::gca::SweepMode::kDense, 8);
}
BENCHMARK(BM_GcaHirschbergDensePool)->RangeMultiplier(2)->Range(64, 512);

void BM_GcaHirschbergSparsePool(benchmark::State& state) {
  gca_hirschberg_sweep(state, gcalib::gca::SweepMode::kSparse, 8);
}
BENCHMARK(BM_GcaHirschbergSparsePool)->RangeMultiplier(2)->Range(64, 512);

void BM_GcaHirschbergPool(benchmark::State& state) {
  const Graph g = dense_graph(state.range(0));
  gcalib::core::RunOptions options;
  options.instrument = false;
  options.threads = 4;
  for (auto _ : state) {
    gcalib::core::HirschbergGca machine(g);
    benchmark::DoNotOptimize(machine.run(options).labels.data());
  }
}
BENCHMARK(BM_GcaHirschbergPool)->RangeMultiplier(2)->Range(64, 256);

void BM_GcaHirschbergTraced(benchmark::State& state) {
  // Cost of the metrics layer: identical to BM_GcaHirschberg except a
  // Trace sink is attached, so every step pays two clock reads plus the
  // sink push.  Compare against BM_GcaHirschberg to see the overhead
  // (scripts/bench_engine.sh prints the ratio); the sinks-disabled path is
  // covered by BM_GcaHirschberg itself staying flat.
  const Graph g = dense_graph(state.range(0));
  gcalib::gca::Trace trace;
  gcalib::core::RunOptions options;
  options.instrument = false;
  options.sink = &trace;
  std::size_t steps = 0;
  for (auto _ : state) {
    trace.clear();
    gcalib::core::HirschbergGca machine(g);
    const auto result = machine.run(options);
    steps = trace.size();
    benchmark::DoNotOptimize(result.labels.data());
  }
  state.counters["traced_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_GcaHirschbergTraced)->RangeMultiplier(2)->Range(8, 256);

// --- engine-step overhead: one thread vs the persistent pool -------------
//
// A Hirschberg-sized field (n x (n+1) cells) steps a congestion-free
// one-handed rule, so per step the pool pays one epoch handshake on top of
// the sweep.  items/s = engine steps per second — the paper's generation
// rate.  scripts/bench_engine.sh captures the series into
// BENCH_engine.json.

constexpr unsigned kSweepThreads = 8;

/// Cheapest possible sink: measures the engine's timing + dispatch overhead
/// without the memory traffic a recording Trace would add over millions of
/// benchmark iterations.
struct CountingSink final : gcalib::gca::MetricsSink {
  std::uint64_t steps = 0;
  std::uint64_t busy_ns = 0;
  void on_step(const gcalib::gca::GenerationStats& stats) override {
    ++steps;
    busy_ns += stats.duration_ns;
  }
};

void engine_sweep(benchmark::State& state, unsigned threads,
                  CountingSink* sink = nullptr) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t cells = n * (n + 1);
  std::vector<std::uint32_t> initial(cells);
  std::iota(initial.begin(), initial.end(), 0u);
  gcalib::gca::Engine<std::uint32_t> engine(
      std::move(initial), gcalib::gca::EngineOptions{}
                              .with_threads(threads)
                              .with_instrumentation(false));
  if (sink != nullptr) engine.add_sink(sink);
  const auto rule = [cells](std::size_t i,
                            auto& read) -> std::optional<std::uint32_t> {
    return read((i + 1) % cells) + 1;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(rule).active_cells);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_EngineSweepSequential(benchmark::State& state) {
  engine_sweep(state, 1);
}
BENCHMARK(BM_EngineSweepSequential)->RangeMultiplier(2)->Range(64, 256);

void BM_EngineSweepPool(benchmark::State& state) {
  engine_sweep(state, kSweepThreads);
}
BENCHMARK(BM_EngineSweepPool)->RangeMultiplier(2)->Range(64, 256);

void BM_EngineSweepPoolTraced(benchmark::State& state) {
  // Pool sweep with a metrics sink attached: adds per-step + per-lane clock
  // reads and the sink dispatch.  Compare against BM_EngineSweepPool.
  CountingSink sink;
  engine_sweep(state, kSweepThreads, &sink);
  state.counters["sink_steps"] = static_cast<double>(sink.steps);
}
BENCHMARK(BM_EngineSweepPoolTraced)->RangeMultiplier(2)->Range(64, 256);

void BM_GcaInstrumented(benchmark::State& state) {
  // Cost of congestion instrumentation (Table 1 measurements).
  const Graph g = dense_graph(state.range(0));
  for (auto _ : state) {
    gcalib::core::HirschbergGca machine(g);
    benchmark::DoNotOptimize(machine.run().records.size());
  }
}
BENCHMARK(BM_GcaInstrumented)->RangeMultiplier(2)->Range(8, 64);

void BM_PramHirschberg(benchmark::State& state) {
  const Graph g = dense_graph(state.range(0));
  std::size_t steps = 0;
  for (auto _ : state) {
    const auto result = gcalib::pram::run_hirschberg_pram(g);
    steps = result.stats.steps;
    benchmark::DoNotOptimize(result.labels.data());
  }
  state.counters["pram_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_PramHirschberg)->RangeMultiplier(2)->Range(8, 128);

void BM_HirschbergReference(benchmark::State& state) {
  const Graph g = dense_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcalib::pram::hirschberg_reference(g).data());
  }
}
BENCHMARK(BM_HirschbergReference)->RangeMultiplier(2)->Range(8, 256);

void BM_ShiloachVishkin(benchmark::State& state) {
  const Graph g = dense_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gcalib::pram::shiloach_vishkin_reference(g).data());
  }
}
BENCHMARK(BM_ShiloachVishkin)->RangeMultiplier(2)->Range(8, 256);

void BM_UnionFind(benchmark::State& state) {
  const Graph g = dense_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcalib::graph::union_find_components(g).data());
  }
}
BENCHMARK(BM_UnionFind)->RangeMultiplier(2)->Range(8, 256);

void BM_Bfs(benchmark::State& state) {
  const Graph g = dense_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcalib::graph::bfs_components(g).data());
  }
}
BENCHMARK(BM_Bfs)->RangeMultiplier(2)->Range(8, 256);

void BM_GenerationFormula(benchmark::State& state) {
  // Not a timing benchmark: records the generation count per n so the
  // log^2 shape is visible in one report.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gcalib::core::total_generations(static_cast<std::size_t>(state.range(0))));
  }
  state.counters["generations"] = static_cast<double>(
      gcalib::core::total_generations(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_GenerationFormula)->RangeMultiplier(4)->Range(4, 4096);

}  // namespace

BENCHMARK_MAIN();
