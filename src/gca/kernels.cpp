#include "gca/kernels.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace gcalib::gca {

namespace {

/// Folds one engine step's stats into the kernel result.
void track(KernelResult& result, const GenerationStats& stats) {
  ++result.generations;
  result.max_congestion = std::max(result.max_congestion, stats.max_congestion);
}

}  // namespace

KernelResult reduce(const std::vector<KernelWord>& values,
                    const Combiner& combine) {
  const std::size_t n = values.size();
  GCALIB_EXPECTS(n >= 1);
  Engine<KernelWord> engine(values);
  KernelResult result;
  const std::size_t steps = n > 1 ? log2_ceil(n) : 0;
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    track(result, engine.step([n, offset, &combine, &engine](
                                  std::size_t i,
                                  auto& read) -> std::optional<KernelWord> {
      if (i % (2 * offset) != 0 || i + offset >= n) return std::nullopt;
      return combine(engine.state(i), read(i + offset));
    }));
  }
  result.values = engine.states();
  return result;
}

KernelResult broadcast(const std::vector<KernelWord>& values,
                       std::size_t source) {
  const std::size_t n = values.size();
  GCALIB_EXPECTS(n >= 1 && source < n);
  Engine<KernelWord> engine(values);
  KernelResult result;
  const std::size_t steps = n > 1 ? log2_ceil(n) : 0;
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    track(result, engine.step([n, source, offset](
                                  std::size_t i,
                                  auto& read) -> std::optional<KernelWord> {
      const std::size_t dist = (i + n - source) % n;
      if (dist < offset || dist >= 2 * offset) return std::nullopt;
      return read((i + n - offset) % n);
    }));
  }
  result.values = engine.states();
  return result;
}

KernelResult exclusive_scan(const std::vector<KernelWord>& values,
                            const Combiner& combine, KernelWord identity) {
  const std::size_t n = values.size();
  GCALIB_EXPECTS(n >= 1);
  Engine<KernelWord> engine(values);
  KernelResult result;
  // Hillis-Steele inclusive scan...
  const std::size_t hs_steps = n > 1 ? log2_ceil(n) : 0;
  for (std::size_t s = 0; s < hs_steps; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    track(result, engine.step([offset, &combine, &engine](
                                  std::size_t i,
                                  auto& read) -> std::optional<KernelWord> {
      if (i < offset) return std::nullopt;
      return combine(read(i - offset), engine.state(i));
    }));
  }
  // ...then shift right by one with the identity entering at cell 0.
  track(result, engine.step([identity](std::size_t i, auto& read)
                                -> std::optional<KernelWord> {
    if (i == 0) return identity;
    return read(i - 1);
  }));
  result.values = engine.states();
  return result;
}

KernelResult cyclic_shift(const std::vector<KernelWord>& values,
                          std::size_t offset) {
  const std::size_t n = values.size();
  GCALIB_EXPECTS(n >= 1);
  Engine<KernelWord> engine(values);
  KernelResult result;
  track(result, engine.step([n, offset](std::size_t i, auto& read)
                                -> std::optional<KernelWord> {
    return read((i + offset) % n);
  }));
  result.values = engine.states();
  return result;
}

KernelResult bitonic_sort(const std::vector<KernelWord>& values) {
  const std::size_t n = values.size();
  GCALIB_EXPECTS_MSG(is_pow2(n), "bitonic sort needs a power-of-two size");
  Engine<KernelWord> engine(values);
  KernelResult result;
  for (std::size_t k = 2; k <= n; k *= 2) {
    for (std::size_t j = k / 2; j >= 1; j /= 2) {
      track(result, engine.step([k, j, &engine](
                                    std::size_t i,
                                    auto& read) -> std::optional<KernelWord> {
        const std::size_t partner = i ^ j;
        const KernelWord self = engine.state(i);
        const KernelWord other = read(partner);
        const bool ascending = (i & k) == 0;
        const bool is_low = i < partner;
        const bool keep_min = ascending == is_low;
        return keep_min ? std::min(self, other) : std::max(self, other);
      }));
    }
  }
  result.values = engine.states();
  return result;
}

namespace {

/// Cell state of the list-ranking kernel.
struct RankCell {
  std::size_t next = 0;
  std::size_t rank = 0;
};

}  // namespace

ListRankResult list_rank(const std::vector<std::size_t>& next) {
  const std::size_t n = next.size();
  ListRankResult result;
  if (n == 0) return result;

  std::vector<RankCell> initial(n);
  for (std::size_t i = 0; i < n; ++i) {
    GCALIB_EXPECTS(next[i] < n);
    initial[i].next = next[i];
    initial[i].rank = next[i] == i ? 0 : 1;  // tails are rank 0
  }
  Engine<RankCell> engine(std::move(initial));

  const std::size_t steps = n > 1 ? log2_ceil(n) : 0;
  for (std::size_t s = 0; s < steps; ++s) {
    const GenerationStats stats = engine.step(
        [&engine](std::size_t i, auto& read) -> std::optional<RankCell> {
          const RankCell& self = engine.state(i);
          if (self.next == i) return std::nullopt;  // reached the tail
          const RankCell& successor = read(self.next);
          RankCell out;
          out.rank = self.rank + successor.rank;
          out.next = successor.next;
          return out;
        });
    ++result.generations;
    result.max_congestion = std::max(result.max_congestion, stats.max_congestion);
  }

  result.ranks.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.ranks[i] = engine.state(i).rank;
  return result;
}

}  // namespace gcalib::gca
