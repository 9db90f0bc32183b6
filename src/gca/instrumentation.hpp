// Per-generation measurement records for GCA runs.
//
// Table 1 of the paper characterises every generation by the number of
// active cells (cells that modify their state), the number of cells that
// are read, and the congestion delta — how many concurrent read accesses
// each read cell receives.  `GenerationStats` captures exactly those
// quantities from an instrumented engine step, as congestion *classes*
// (delta value -> number of target cells with that delta) so the bench can
// print rows in the same shape as the paper's table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gcalib::gca {

/// Wall-clock timing of one lane (= chunk) of a parallel sweep.  The pool
/// multiplexes chunks over its lanes, but the chunk partition — and
/// therefore this record's identity and cell range — is fixed by the
/// sweep width alone.
struct LaneTiming {
  unsigned lane = 0;              ///< chunk index of the sweep partition
  std::uint64_t start_ns = 0;     ///< steady-clock stamp at chunk start
  std::uint64_t duration_ns = 0;  ///< wall-clock of the chunk sweep
  std::size_t cells = 0;          ///< cells swept by this chunk
};

/// Measurements of one engine step (one generation or sub-generation).
///
/// The logical counters (active cells, reads, congestion — the paper's
/// Table 1 quantities) are bit-identical across all execution backends.
/// The timing fields are wall-clock measurements filled only while a
/// `MetricsSink` is attached to the engine (gca/metrics.hpp); they
/// naturally vary between runs and backends.
struct GenerationStats {
  std::uint64_t generation = 0;   ///< global step counter value
  std::string label;              ///< e.g. "gen2", "gen3.sub1"
  std::size_t cell_count = 0;     ///< field size
  std::size_t active_cells = 0;   ///< cells whose rule produced a new state
  std::size_t total_reads = 0;    ///< sum of all global read accesses
  std::size_t cells_read = 0;     ///< distinct cells that were read
  std::size_t max_congestion = 0; ///< max reads received by any one cell

  /// delta -> number of cells read exactly delta times (delta >= 1).
  std::map<std::size_t, std::size_t> congestion_classes;

  // --- physical counters (vary with SweepMode, never with backend) ------

  /// Cells the engine actually iterated this step.  Equal to `cell_count`
  /// under dense sweeps; under sparse sweeps it is the advertised region's
  /// size.  Like the timing fields below, this measures the *execution*,
  /// not the algorithm: the logical Table-1 counters above are computed
  /// over the full logical field in both modes.
  std::size_t cells_swept = 0;

  // --- wall-clock timing (zero unless a MetricsSink was attached) -------
  std::uint64_t start_ns = 0;     ///< steady-clock stamp at sweep start
  std::uint64_t duration_ns = 0;  ///< wall-clock of the whole step
  std::vector<LaneTiming> lane_times;  ///< per-chunk timing (parallel sweeps)

  /// Cells receiving no read this step (= cell_count - cells_read, clamped
  /// to zero: a read override or hand-merged multi-field stats can push
  /// cells_read past cell_count, and the difference must not wrap).
  [[nodiscard]] std::size_t cells_unread() const {
    return cells_read < cell_count ? cell_count - cells_read : 0;
  }

  /// True iff the *logical* (Table-1) projection of two records matches:
  /// generation counter, label, field size, active cells, reads and the
  /// full congestion histogram.  Physical fields (cells_swept, timing)
  /// are excluded — they legitimately differ between sweep modes and
  /// between timed and untimed runs.
  [[nodiscard]] bool logically_equal(const GenerationStats& other) const {
    return generation == other.generation && label == other.label &&
           cell_count == other.cell_count &&
           active_cells == other.active_cells &&
           total_reads == other.total_reads &&
           cells_read == other.cells_read &&
           max_congestion == other.max_congestion &&
           congestion_classes == other.congestion_classes;
  }
};

/// Aggregates several (sub-)generation records, e.g. the log n
/// sub-generations of a tree-reduction generation, into one summary row.
struct GenerationSummary {
  std::string label;
  std::size_t steps = 0;
  std::size_t active_cells_total = 0;
  std::size_t active_cells_first = 0;  ///< paper reports first sub-generation
  std::size_t total_reads = 0;
  std::size_t cells_read_total = 0;
  std::size_t max_congestion = 0;
};

[[nodiscard]] GenerationSummary summarize(const std::string& label,
                                          const std::vector<GenerationStats>& steps);

}  // namespace gcalib::gca
