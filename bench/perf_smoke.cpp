// perf_smoke — fast performance guardrails.
//
// Every gate times median-of-k with one untimed warmup run (the warmup
// pulls code and the graph into cache and absorbs one-off allocation; the
// median shrugs off a single noisy neighbour) and prints the measured
// ratios on failure, so a tripped gate is diagnosable from the log alone.
//
// Gate 1 (sweep): runs the Hirschberg machine at n = 128 (uninstrumented,
// single thread) in both sweep modes and fails if the sparse active-region
// schedule is more than 10% slower than the dense whole-field sweep — i.e.
// if the work-efficiency machinery ever regresses into overhead.
//
// Gate 2 (substrate): at n = 2048 on a sparse random graph, the CSR
// engine's default solve must be at least 10x faster than the dense
// paper field (DESIGN.md §12) — the whole justification of the substrate
// redesign.  The margin is deliberately loose (the real ratio is orders of
// magnitude); tripping it means the CSR engine degenerated to dense-like
// work.
//
// Gate 3 (kernels): at n >= 256, the auto-dispatched kernel table
// (DESIGN.md §13: packed adjacency + SIMD variants + worklist scheduling)
// must run the single-threaded sparse sweep at least 2.5x faster than the
// scalar golden-reference table.  The measured ratio on an AVX2 host is
// ~3.0x — the remaining steps are LLC-bandwidth-bound (every bulk
// generation streams the full d and p planes), so the gate sits below
// that with margin rather than at an aspirational number.  Skipped with a
// message on hosts whose auto pick *is* scalar — the ratio is 1 by
// construction there.
//
// Gate 4 (link pass): at n >= 262144 on a random graph of about 2n
// edges kept by `CsrGraph::from_edges`, the default sparse solve (the
// one-lane link pass, DESIGN.md §14) must be at least 3x faster than the
// sync hook + jump reference at one lane.  Enforced on every host: both
// sides run on one lane.
//
// Gate 5 (resilience overhead): at the gate-4 size, the sync round loop
// with the DESIGN.md §15 resilience surface attached but detached — no-op
// round hooks, monitors off, no certificate, no checkpoints — must stay
// within 3% of the bare sync solve (median of >= 5).  Both sides pin
// kSync, so the gate compares hooks, not engines.  The resilience
// machinery is pay-for-what-you-use; this gate keeps the "use nothing"
// price at zero.
//
// Wired into scripts/check.sh as the "perf-smoke" phase; this is a coarse
// tripwire (median-of-k, generous margins), not a benchmark —
// scripts/bench_engine.sh, scripts/bench_substrate.sh and
// scripts/bench_fault.sh measure the real speedups and overheads.
//
//   $ ./perf_smoke                     # n = 128, median of 3,
//                                      # substrate n = 2048, link n = 262144
//   $ ./perf_smoke 256 5 4096 524288   # custom sizes / repetitions
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cc_solver.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/execution.hpp"
#include "gca/kernel_registry.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"

namespace {

using Clock = std::chrono::steady_clock;

template <typename Run>
double median_ms(int reps, const Run& run) {
  run();  // untimed warmup
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    run();
    const auto stop = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double sweep_run_ms(const gcalib::graph::Graph& g, gcalib::gca::SweepMode sweep,
                    gcalib::gca::KernelVariant kernels, int reps) {
  gcalib::core::RunOptions options;
  options.instrument = false;
  options.sweep = sweep;
  options.kernels = kernels;
  return median_ms(reps, [&] {
    gcalib::core::HirschbergGca machine(g);
    const auto result = machine.run(options);
    if (result.labels.empty()) std::abort();  // keep the run observable
  });
}

double substrate_ms(const gcalib::core::CcSolver& solver,
                    const gcalib::graph::Graph& g, int reps) {
  gcalib::core::RunOptions options;
  options.instrument = false;
  return median_ms(reps, [&] {
    const gcalib::core::QueryResult result =
        solver.solve(gcalib::core::SolverInput(g), options);
    if (result.labels.empty()) std::abort();  // keep the run observable
  });
}

double sparse_solve_ms(const gcalib::graph::CsrGraph& csr,
                       gcalib::gca::SparseMode mode, int reps) {
  gcalib::core::RunOptions options;
  options.instrument = false;
  options.sparse_mode = mode;
  const gcalib::core::SolverInput input(csr);
  return median_ms(reps, [&] {
    const gcalib::core::QueryResult result =
        gcalib::core::sparse_cc_solver().solve(input, options);
    if (result.labels.empty()) std::abort();  // keep the run observable
  });
}

/// Gate-5 variant: the same one-lane sync solve with the resilience
/// surface attached but doing nothing — no-op before/after round hooks,
/// monitors and certificate off, no checkpoint directory.  Measures the
/// price of merely *having* the hooks threaded through the round loop.
double sparse_detached_hooks_ms(const gcalib::graph::CsrGraph& csr,
                                int reps) {
  gcalib::core::RunOptions options;
  options.instrument = false;
  options.sparse_mode = gcalib::gca::SparseMode::kSync;
  options.sparse_before_round = [](const gcalib::core::SparseRoundContext&) {};
  options.sparse_after_round = [](const gcalib::core::SparseRoundContext&) {};
  const gcalib::core::SolverInput input(csr);
  return median_ms(reps, [&] {
    const gcalib::core::QueryResult result =
        gcalib::core::sparse_cc_solver().solve(input, options);
    if (result.labels.empty()) std::abort();  // keep the run observable
  });
}

/// Random m-edge graph kept as pairs by `CsrGraph::from_edges` — the
/// gate-4 input never materialises a dense representation (n^2 bits at
/// n = 262144 is 8 GiB).
gcalib::graph::CsrGraph sample_csr(gcalib::graph::NodeId n,
                                   std::size_t target_edges,
                                   std::uint64_t seed) {
  gcalib::Xoshiro256 rng(seed);
  std::vector<gcalib::graph::Edge> edges;
  edges.reserve(target_edges);
  for (std::size_t i = 0; i < target_edges; ++i) {
    const auto u = static_cast<gcalib::graph::NodeId>(rng() % n);
    const auto v = static_cast<gcalib::graph::NodeId>(rng() % n);
    if (u == v) continue;
    edges.push_back({u, v});
  }
  return gcalib::graph::CsrGraph::from_edges(n, edges);
}

}  // namespace

int main(int argc, char** argv) {
  const auto n = static_cast<gcalib::graph::NodeId>(
      argc > 1 ? std::stoul(argv[1]) : 128);
  const int reps = argc > 2 ? std::stoi(argv[2]) : 3;
  const gcalib::graph::Graph g = gcalib::graph::random_gnp(n, 0.5, 1);

  constexpr auto kAuto = gcalib::gca::KernelVariant::kAuto;
  const double dense =
      sweep_run_ms(g, gcalib::gca::SweepMode::kDense, kAuto, reps);
  const double sparse =
      sweep_run_ms(g, gcalib::gca::SweepMode::kSparse, kAuto, reps);

  std::printf("perf-smoke: n=%u, median of %d runs (1 warmup)\n", n, reps);
  std::printf("  dense  sweep: %8.3f ms\n", dense);
  std::printf("  sparse sweep: %8.3f ms (%.2fx)\n", sparse,
              sparse > 0.0 ? dense / sparse : 0.0);

  if (sparse > dense * 1.10) {
    std::fprintf(stderr,
                 "perf-smoke FAILED: sparse sweep is %.1f%% slower than "
                 "dense (allowed: 10%%; dense %.3f ms, sparse %.3f ms, "
                 "ratio %.3f)\n",
                 (sparse / dense - 1.0) * 100.0, dense, sparse, sparse / dense);
    return 1;
  }

  // Gate 2: substrate — sparse_csr vs the dense field on a sparse graph.
  const auto substrate_n = static_cast<gcalib::graph::NodeId>(
      argc > 3 ? std::stoul(argv[3]) : 2048);
  const gcalib::graph::Graph sg = gcalib::graph::random_gnp(
      substrate_n, 8.0 / static_cast<double>(substrate_n), 1);
  // The dense field at this size costs real seconds: one timed rep (plus
  // the warmup inside median_ms) keeps the smoke fast; the sparse side is
  // cheap enough for the full median.
  const double dense_field =
      substrate_ms(gcalib::core::dense_cc_solver(), sg, 1);
  const double sparse_csr =
      substrate_ms(gcalib::core::sparse_cc_solver(), sg, reps);
  std::printf("perf-smoke: substrate gate at n=%u (m=%zu)\n", substrate_n,
              sg.edge_count());
  std::printf("  dense  field: %10.3f ms\n", dense_field);
  std::printf("  sparse csr:   %10.3f ms (%.1fx)\n", sparse_csr,
              sparse_csr > 0.0 ? dense_field / sparse_csr : 0.0);
  if (sparse_csr * 10.0 > dense_field) {
    std::fprintf(stderr,
                 "perf-smoke FAILED: sparse_csr is only %.1fx faster than "
                 "the dense field at n=%u (required: >= 10x; dense %.3f ms, "
                 "csr %.3f ms)\n",
                 sparse_csr > 0.0 ? dense_field / sparse_csr : 0.0,
                 substrate_n, dense_field, sparse_csr);
    return 1;
  }

  // Gate 3: kernel dispatch — the auto-picked table (packed planes + SIMD
  // + worklist scheduling) vs the scalar golden reference, single-threaded
  // sparse sweep at n >= 256 where the O(n^2) generations dominate.
  const gcalib::gca::KernelVariant resolved =
      gcalib::gca::resolve_kernel_variant(kAuto);
  if (resolved == gcalib::gca::KernelVariant::kScalar) {
    std::printf(
        "perf-smoke: kernel gate skipped — auto resolves to scalar on this "
        "host (no SIMD table registered)\n");
  } else {
    const auto kernel_n = std::max<gcalib::graph::NodeId>(n, 256);
    const gcalib::graph::Graph kg =
        kernel_n == n ? g : gcalib::graph::random_gnp(kernel_n, 0.5, 1);
    const double scalar_ms = sweep_run_ms(
        kg, gcalib::gca::SweepMode::kSparse,
        gcalib::gca::KernelVariant::kScalar, reps);
    const double auto_ms =
        sweep_run_ms(kg, gcalib::gca::SweepMode::kSparse, kAuto, reps);
    const double speedup = auto_ms > 0.0 ? scalar_ms / auto_ms : 0.0;
    std::printf("perf-smoke: kernel gate at n=%u (auto = %s)\n", kernel_n,
                gcalib::gca::to_string(resolved));
    std::printf("  scalar kernels: %8.3f ms\n", scalar_ms);
    std::printf("  auto   kernels: %8.3f ms (%.2fx)\n", auto_ms, speedup);
    if (speedup < 2.5) {
      std::fprintf(stderr,
                   "perf-smoke FAILED: %s kernels are only %.2fx faster than "
                   "scalar at n=%u (required: >= 2.5x; scalar %.3f ms, auto "
                   "%.3f ms)\n",
                   gcalib::gca::to_string(resolved), speedup, kernel_n,
                   scalar_ms, auto_ms);
      return 1;
    }
  }

  // Gate 4: the link pass vs the sync reference, both on one lane.
  const auto link_n = static_cast<gcalib::graph::NodeId>(
      argc > 4 ? std::stoul(argv[4]) : 262'144);
  const gcalib::graph::CsrGraph csr =
      sample_csr(link_n, 2 * static_cast<std::size_t>(link_n), 1);
  constexpr auto kSync = gcalib::gca::SparseMode::kSync;
  {
    constexpr double kRequiredSpeedup = 3.0;
    const double sync_ms = sparse_solve_ms(csr, kSync, reps);
    const double link_ms =
        sparse_solve_ms(csr, gcalib::gca::SparseMode::kAuto, reps);
    const double speedup = link_ms > 0.0 ? sync_ms / link_ms : 0.0;
    std::printf("perf-smoke: link pass gate at n=%u (m=%zu, one lane)\n",
                csr.node_count(), csr.edge_count());
    std::printf("  sync reference: %8.3f ms\n", sync_ms);
    std::printf("  link pass:      %8.3f ms (%.2fx)\n", link_ms, speedup);
    if (speedup < kRequiredSpeedup) {
      std::fprintf(stderr,
                   "perf-smoke FAILED: the link pass is only %.2fx faster "
                   "than the sync reference at n=%u (required: >= %.1fx; "
                   "sync %.3f ms, link %.3f ms)\n",
                   speedup, csr.node_count(), kRequiredSpeedup, sync_ms,
                   link_ms);
      return 1;
    }
  }

  // Gate 5: resilience surface at rest — detached hooks must be free.  The
  // hooks fire once per round on the coordinating thread, so any measurable
  // gap here means per-vertex work leaked behind the std::function checks.
  {
    constexpr double kAllowedOverhead = 1.03;
    const int gate_reps = std::max(reps, 5);
    const double bare_ms = sparse_solve_ms(csr, kSync, gate_reps);
    const double hooked_ms = sparse_detached_hooks_ms(csr, gate_reps);
    const double ratio = bare_ms > 0.0 ? hooked_ms / bare_ms : 0.0;
    std::printf("perf-smoke: resilience overhead gate at n=%u (m=%zu)\n",
                csr.node_count(), csr.edge_count());
    std::printf("  bare    solve: %10.3f ms\n", bare_ms);
    std::printf("  detached hooks: %9.3f ms (%+.2f%%)\n", hooked_ms,
                (ratio - 1.0) * 100.0);
    if (hooked_ms > bare_ms * kAllowedOverhead) {
      std::fprintf(stderr,
                   "perf-smoke FAILED: detached resilience hooks cost %.1f%% "
                   "on the sparse solve at n=%u (allowed: %.0f%%; bare "
                   "%.3f ms, hooked %.3f ms)\n",
                   (ratio - 1.0) * 100.0, csr.node_count(),
                   (kAllowedOverhead - 1.0) * 100.0, bare_ms, hooked_ms);
      return 1;
    }
  }

  std::printf("perf-smoke: ok\n");
  return 0;
}
