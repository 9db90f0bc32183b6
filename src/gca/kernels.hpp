// Reusable GCA kernels: the communication/computation primitives that the
// Hirschberg machine uses implicitly (tree reduction, broadcast) plus the
// standard companions (exclusive scan, cyclic shift, hypercube-pattern
// bitonic sort).  All kernels run on the generic Engine with one-handed
// cells and static, position-dependent pointers — i.e. they are legal GCA
// programs in the paper's sense, not host-side shortcuts.
//
// Each kernel reports the number of generations it used; the congestion of
// every kernel generation is 1 (reduction, shift, sort) or is made 1 by
// doubling (broadcast) — properties the tests pin down.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gca/engine.hpp"

namespace gcalib::gca {

/// Word type used by the kernels.
using KernelWord = std::uint64_t;

/// Result of a kernel run: the final cell values and the generation count.
struct KernelResult {
  std::vector<KernelWord> values;
  std::size_t generations = 0;
  std::size_t max_congestion = 0;  ///< max over the kernel's generations
};

/// Associative combiner (e.g. min, +, |).
using Combiner = std::function<KernelWord(KernelWord, KernelWord)>;

/// Tree-reduces `values` with `combine`; the result lands in cell 0
/// (classic ascend reduction, ceil(lg n) generations, congestion 1).
[[nodiscard]] KernelResult reduce(const std::vector<KernelWord>& values,
                                  const Combiner& combine);

/// Broadcasts the value of cell `source` to every cell by distance
/// doubling (ceil(lg n) generations, congestion 1).
[[nodiscard]] KernelResult broadcast(const std::vector<KernelWord>& values,
                                     std::size_t source);

/// Exclusive prefix scan (Hillis-Steele style, inclusive shifted):
/// cell i ends with combine(values[0..i-1]), cell 0 with `identity`.
/// ceil(lg n) + 1 generations; every generation has congestion 1.
[[nodiscard]] KernelResult exclusive_scan(const std::vector<KernelWord>& values,
                                          const Combiner& combine,
                                          KernelWord identity);

/// Cyclic shift by `offset` (single generation, congestion 1): cell i ends
/// with values[(i + offset) mod n].
[[nodiscard]] KernelResult cyclic_shift(const std::vector<KernelWord>& values,
                                        std::size_t offset);

/// Bitonic sort (ascending) — the "hypercube algorithm" pattern from the
/// paper's introduction: partners are index XOR 2^s, all pointers static.
/// Requires |values| to be a power of two.  (lg n)(lg n + 1)/2 compare
/// generations, congestion 1 throughout.
[[nodiscard]] KernelResult bitonic_sort(const std::vector<KernelWord>& values);

/// Result of list ranking.
struct ListRankResult {
  std::vector<std::size_t> ranks;  ///< distance to the list tail
  std::size_t generations = 0;
  std::size_t max_congestion = 0;
};

/// List ranking by pointer doubling — the canonical *data-dependent
/// pointer* kernel (the capability that separates the GCA from the CA, and
/// the mechanism behind the Hirschberg machine's generation 10).
/// `next[i]` is the successor of i; tails point to themselves.  After
/// ceil(lg n) generations every cell knows its distance to its tail.
/// One-handed: a cell reads its successor's whole state (rank and next) in
/// a single access.
[[nodiscard]] ListRankResult list_rank(const std::vector<std::size_t>& next);

}  // namespace gcalib::gca
