#include "core/hirschberg_ncells.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "gca/engine.hpp"

namespace gcalib::core {

namespace {

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

/// One cell per node: C(i), T(i) and the scan accumulator.  The cell's
/// adjacency row lives outside the evolving state (read-only input, the
/// hardware analogue is a per-cell ROM).
struct NCell {
  std::uint32_t c = 0;
  std::uint32_t t = 0;
  std::uint32_t acc = 0;
};

}  // namespace

NCellRunResult hirschberg_ncells(const graph::Graph& g, bool instrument) {
  const graph::NodeId n = g.node_count();
  NCellRunResult result;
  if (n == 0) return result;

  // Each cell's adjacency row (its ROM), unpacked once from the neighbour
  // lists so the step-2 scan probes A(i, k) in O(1).
  std::vector<std::uint8_t> rom(std::size_t{n} * n, 0);
  for (graph::NodeId i = 0; i < n; ++i) {
    for (const graph::NodeId k : g.neighbors(i)) {
      rom[std::size_t{i} * n + k] = 1;
    }
  }

  gca::Engine<NCell> engine(
      std::vector<NCell>(n),
      gca::EngineOptions{}.with_instrumentation(instrument));

  const auto track = [&result](const gca::GenerationStats& stats) {
    ++result.generations;
    result.max_congestion = std::max(result.max_congestion, stats.max_congestion);
  };

  // Step 1: C(i) <- i (local).
  track(engine.step(
      [](std::size_t i, auto&) -> std::optional<NCell> {
        NCell next;
        next.c = static_cast<std::uint32_t>(i);
        return next;
      },
      "ncell.init"));

  const unsigned iterations = n > 1 ? log2_ceil(n) : 0;

  // Sequential-scan minimum: `accept(self, neighbour_state, k)` filters
  // candidates; after the scan, acc holds the min or kInf.
  const auto scan_min = [&](auto&& accept, const char* label) {
    track(engine.step(
        [&engine](std::size_t i, auto&) -> std::optional<NCell> {
          NCell next = engine.state(i);
          next.acc = kInf;
          return next;
        },
        std::string(label) + ".reset"));
    for (graph::NodeId k = 0; k < n; ++k) {
      track(engine.step(
          [&engine, &accept, k](std::size_t i,
                                auto& read) -> std::optional<NCell> {
            NCell next = engine.state(i);
            const NCell& other = read(k);
            const std::uint32_t candidate = accept(i, next, other, k);
            next.acc = std::min(next.acc, candidate);
            return next;
          },
          std::string(label) + ".k" + std::to_string(k)));
    }
    // Fallback: T <- acc, or C when no candidate was found.
    track(engine.step(
        [&engine](std::size_t i, auto&) -> std::optional<NCell> {
          NCell next = engine.state(i);
          next.t = next.acc == kInf ? next.c : next.acc;
          return next;
        },
        std::string(label) + ".collect"));
  };

  for (unsigned iter = 0; iter < iterations; ++iter) {
    // Step 2: T(i) = min{C(k) : A(i,k)=1, C(k) != C(i)}.
    scan_min(
        [&rom, n](std::size_t i, const NCell& self, const NCell& other,
                  graph::NodeId k) -> std::uint32_t {
          const bool adjacent = rom[i * n + k] != 0;
          return (adjacent && other.c != self.c) ? other.c : kInf;
        },
        "ncell.step2");

    // Step 3: T(i) = min{T(k) : C(k) = i, T(k) != i}.
    scan_min(
        [](std::size_t i, const NCell& /*self*/, const NCell& other,
           graph::NodeId /*k*/) -> std::uint32_t {
          const auto node = static_cast<std::uint32_t>(i);
          return (other.c == node && other.t != node) ? other.t : kInf;
        },
        "ncell.step3");

    // Step 4: C <- T (local).
    track(engine.step(
        [&engine](std::size_t i, auto&) -> std::optional<NCell> {
          NCell next = engine.state(i);
          next.c = next.t;
          return next;
        },
        "ncell.adopt"));

    // Step 5: pointer jumping, ceil(lg n) rounds.
    for (unsigned r = 0; r < iterations; ++r) {
      track(engine.step(
          [&engine](std::size_t i, auto& read) -> std::optional<NCell> {
            NCell next = engine.state(i);
            next.c = read(next.c).c;
            return next;
          },
          "ncell.jump"));
    }

    // Step 6: C(i) <- min(C(i), C(T(i))).
    track(engine.step(
        [&engine](std::size_t i, auto& read) -> std::optional<NCell> {
          NCell next = engine.state(i);
          next.c = std::min(next.c, read(next.t).c);
          return next;
        },
        "ncell.correct"));
  }

  result.iterations = iterations;
  result.labels.resize(n);
  for (graph::NodeId i = 0; i < n; ++i) {
    result.labels[i] = engine.state(i).c;
  }
  return result;
}

std::size_t ncells_total_generations(std::size_t n) {
  if (n <= 1) return 1;
  const std::size_t lg = log2_ceil(n);
  // init + per iteration: two scans of (1 + n + 1), adopt (1), lg jumps,
  // correct (1).
  return 1 + lg * (2 * (n + 2) + lg + 2);
}

}  // namespace gcalib::core
