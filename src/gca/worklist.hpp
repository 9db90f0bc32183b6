// Exact active-set worklists (DESIGN.md §13).
//
// The sparse sweep's `ActiveRegion` windows are rectangular *supersets* of
// the truly active cells: a row-min sub-generation with offset 2^s touches
// one cell every 2*2^s columns, but the strided window still enumerates a
// whole column block per row.  A `Worklist` names the active cells exactly
// — a strictly ascending list of cell indices — so when occupancy drops
// below a threshold the engine sweeps |active| cells instead of a window.
//
// Ascending enumeration is the determinism contract: chunking a worklist
// by position partitions the same ordered index sequence the sequential
// sweep walks, so every thread count produces a bit-identical field (the
// same argument ActiveRegion::for_each makes).
// Worklists are typically built once per geometry from a pooled scratch
// bitset (gca/bitplane.hpp) via `assign_from_bits` and cached.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace gcalib::gca {

/// A strictly ascending list of active cell indices.
class Worklist {
 public:
  void clear() { indices_.clear(); }

  /// Appends one index; must be strictly greater than the current last
  /// (the ascending invariant is enforced at build time, so the engine
  /// only has to bounds-check `max_index()` once per step).
  void push_back(std::uint32_t index) {
    GCALIB_ASSERT_MSG(indices_.empty() || index > indices_.back(),
                      "worklist indices must be strictly ascending");
    indices_.push_back(index);
  }

  /// Rebuilds from a packed bitset: bit i set => cell i active.  Extraction
  /// walks words in order and peels bits lowest-first (count-trailing-zeros),
  /// which yields the ascending enumeration by construction.
  void assign_from_bits(const std::uint64_t* words, std::size_t word_count) {
    indices_.clear();
    for (std::size_t w = 0; w < word_count; ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(bits));
        indices_.push_back(static_cast<std::uint32_t>(w * 64 + bit));
        bits &= bits - 1;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return indices_.size(); }
  [[nodiscard]] bool empty() const { return indices_.empty(); }
  [[nodiscard]] const std::uint32_t* data() const { return indices_.data(); }
  [[nodiscard]] const std::vector<std::uint32_t>& indices() const {
    return indices_;
  }

  /// Largest (last) index; the list must be non-empty.
  [[nodiscard]] std::uint32_t max_index() const {
    GCALIB_EXPECTS_MSG(!indices_.empty(), "max_index() on an empty worklist");
    return indices_.back();
  }

  friend bool operator==(const Worklist&, const Worklist&) = default;

 private:
  std::vector<std::uint32_t> indices_;
};

}  // namespace gcalib::gca
