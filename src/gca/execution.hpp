// Execution options of the GCA engine.
//
// This header is deliberately light (no engine template, no <thread>) so
// every consumer that only needs to *configure* an engine — run-option
// structs, CLI front-ends, the Runner — can include it without pulling in
// the sweep machinery.
//
// The sweep width alone picks the backend: `threads == 1` sweeps every
// cell on the calling thread (the reference order, and the only width
// that supports access-edge recording); `threads > 1` dispatches the
// sweep to a persistent worker pool (gca/thread_pool.hpp) through an
// epoch handshake, so a steady-state step performs no thread creation and
// no allocation.  Engines of the same width share one pool instance, so a
// process running many machines (the Runner, the fault-recovery
// re-executions, the GCAL interpreter) keeps a single worker set alive.
//
// Every width produces bit-identical states and statistics: cells are
// partitioned into the same contiguous chunks and instrumentation is
// merged in worker order.
#pragma once

#include <cstddef>
#include <string>

namespace gcalib::cli {
struct EngineFlags;  // common/cli.hpp
}  // namespace gcalib::cli

namespace gcalib::gca {

/// Whether the engine honours per-step active regions.
///
/// Under kSparse the engine sweeps only the cells of the region a rule
/// advertises; every other cell carries its state over untouched (exactly
/// what an inactive rule invocation would have produced).  kDense ignores
/// the region and sweeps the whole field — the verification mode for the
/// dense/sparse equivalence contract (DESIGN.md §9).
enum class SweepMode {
  kDense,   ///< sweep every cell regardless of the advertised region
  kSparse,  ///< sweep only the advertised active region
};

/// Name of a sweep mode ("dense" / "sparse").
[[nodiscard]] const char* to_string(SweepMode mode);

/// Inverse of `to_string`; throws ContractViolation on unknown names.
[[nodiscard]] SweepMode parse_sweep_mode(const std::string& name);

/// Which engine the CSR solver runs (DESIGN.md §14).
///
/// Only consulted by the CSR engine (core::SparseCcSolver); the dense field
/// ignores it.
///
///  * kSync — the double-buffered synchronous hook/jump sweep: every sweep
///    is a pure function of the previous label buffer, so the labeling and
///    the per-sweep statistics are bit-identical at every thread count.
///    The golden reference.
///  * kAuto — the one-lane link-by-min union-find pass over the edges,
///    unless a round-loop feature (the sparse resilience hooks, monitors,
///    certificate, checkpoints, recovery) asks for the sync loop.  Same
///    canonical min-node-id labeling (DESIGN.md §14).
enum class SparseMode {
  kSync,  ///< double-buffered synchronous sweeps — golden reference
  kAuto,  ///< the link pass unless a round-loop feature is set
};

/// Name of a sparse mode ("sync" / "auto").
[[nodiscard]] const char* to_string(SparseMode mode);

/// Inverse of `to_string`; throws ContractViolation on unknown names.
[[nodiscard]] SparseMode parse_sparse_mode(const std::string& name);

/// The set of cells a generation may activate, as a rectangular (optionally
/// column-strided) window over a row-major field:
///
///   { row * row_stride + col_begin + c * col_step
///     : row in [row_begin, row_end), c in [0, cols_per_row()) }
///
/// with `col_begin + c * col_step < col_end`.  This shape covers every
/// generation of the Hirschberg machine: full field, square only, bottom
/// row, single column, and the strided survivor sets of the tree
/// reductions (gen 3/7: col % 2^(s+1) == 0).  A region is a *superset*
/// promise — cells outside it must be left unchanged by the rule (the rule
/// would return nullopt for them), so sweeping only the region is
/// observationally identical to a dense sweep.
///
/// Cells are enumerated in ascending linear index order; chunk partitions
/// split the enumeration [0, count()) so every width and both sweep modes
/// agree on which lane touches which cell.
struct ActiveRegion {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;    ///< exclusive
  std::size_t col_begin = 0;
  std::size_t col_end = 0;    ///< exclusive bound on the raw column value
  std::size_t col_step = 1;   ///< stride between active columns (>= 1)
  std::size_t row_stride = 0; ///< linear-index pitch between consecutive rows

  /// The whole-field safety mode: one "row" spanning all `cells` indices.
  [[nodiscard]] static constexpr ActiveRegion full(std::size_t cells) {
    return ActiveRegion{0, cells > 0 ? 1u : 0u, 0, cells, 1, cells};
  }

  /// Number of active columns within one row.
  [[nodiscard]] constexpr std::size_t cols_per_row() const {
    if (col_begin >= col_end || col_step == 0) return 0;
    return (col_end - col_begin + col_step - 1) / col_step;
  }

  /// Total number of cells in the region.
  [[nodiscard]] constexpr std::size_t count() const {
    return (row_end > row_begin ? row_end - row_begin : 0) * cols_per_row();
  }

  /// Linear index of enumeration position k (k < count()).
  [[nodiscard]] constexpr std::size_t index_at(std::size_t k) const {
    const std::size_t per_row = cols_per_row();
    const std::size_t row = row_begin + k / per_row;
    const std::size_t col = col_begin + (k % per_row) * col_step;
    return row * row_stride + col;
  }

  /// Calls `f(index)` for enumeration positions [k_begin, k_end), in
  /// ascending index order.  The division to locate the starting row runs
  /// once; per cell the cost is one add and a wrap test.
  template <typename F>
  void for_each(std::size_t k_begin, std::size_t k_end, F&& f) const {
    const std::size_t per_row = cols_per_row();
    if (per_row == 0 || k_begin >= k_end) return;
    std::size_t row = row_begin + k_begin / per_row;
    std::size_t c = k_begin % per_row;
    std::size_t index = row * row_stride + col_begin + c * col_step;
    for (std::size_t k = k_begin; k < k_end; ++k) {
      f(index);
      if (++c == per_row) {
        c = 0;
        ++row;
        index = row * row_stride + col_begin;
      } else {
        index += col_step;
      }
    }
  }

  [[nodiscard]] constexpr bool operator==(const ActiveRegion&) const = default;
};

/// Aggregate engine configuration — the primary way to construct an
/// `Engine`.  Fields can be set directly or through the chainable `with_*`
/// builder; `validate()` (called by the engine on every (re)configuration)
/// enforces the cross-field rules:
///
///  * `hands >= 1` and `threads >= 1`;
///  * `record_access` requires a sequential sweep (`threads == 1`).
struct EngineOptions {
  std::size_t hands = 1;  ///< global reads one cell may perform per generation
  unsigned threads = 1;   ///< sweep width (1 = sequential, > 1 = pool)
  bool instrumentation = true;  ///< collect per-step congestion statistics
  bool record_access = false;   ///< record individual (reader, target) edges
  SweepMode sweep = SweepMode::kSparse;  ///< honour advertised active regions
  /// Engine of the CSR solver (see `SparseMode`); carried
  /// here so one validated options object configures either engine — the
  /// `Engine` template ignores it.
  SparseMode sparse_mode = SparseMode::kAuto;

  EngineOptions& with_hands(std::size_t value) {
    hands = value;
    return *this;
  }
  EngineOptions& with_threads(unsigned value) {
    threads = value;
    return *this;
  }
  EngineOptions& with_instrumentation(bool value) {
    instrumentation = value;
    return *this;
  }
  EngineOptions& with_record_access(bool value) {
    record_access = value;
    return *this;
  }
  EngineOptions& with_sweep(SweepMode value) {
    sweep = value;
    return *this;
  }
  EngineOptions& with_sparse_mode(SparseMode value) {
    sparse_mode = value;
    return *this;
  }

  /// True iff the sweep actually runs on more than one thread.
  [[nodiscard]] bool parallel() const { return threads > 1; }

  /// Throws ContractViolation when the combination is inconsistent.
  void validate() const;
};

/// Builds a *validated* EngineOptions from the shared CLI engine flags
/// (common/cli.hpp carries the sweep and sparse mode as their spelled
/// names so common/ stays below gca/; this is the one conversion point).
/// Throws ContractViolation on inconsistent combinations — e.g.
/// `--record-access` with `--threads 4` — so the tools can reject them at
/// parse time (exit 2) instead of asserting mid-run.
[[nodiscard]] EngineOptions options_from_flags(const cli::EngineFlags& flags);

/// The exit-2 wrapper every tool shares: converts + validates the flags,
/// printing `error: <diagnosis>` to stderr and exiting with status 2 on any
/// inconsistent combination — so `gca_cc_tool`, `gcal_run`,
/// `gca_resilient_cc` and `sparse_resilient_cc` reject `--sweep warp`
/// identically.
[[nodiscard]] EngineOptions options_from_flags_or_exit(
    const cli::EngineFlags& flags);

}  // namespace gcalib::gca
