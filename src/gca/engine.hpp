// Generic synchronous Global Cellular Automaton engine.
//
// The GCA model (Hoffmann/Völkmann/Waldschmidt 2000): a collection of cells
// updates synchronously; every cell computes its next state from its own
// state and the states of *dynamically chosen global* neighbours, accessed
// read-only.  This engine is deliberately model-faithful:
//
//  * double-buffered states — all reads during a generation observe the
//    previous generation (no write conflicts can exist, as in the model);
//  * a `Reader` handle mediates neighbour access so the engine can (a)
//    enforce the k-handed restriction (the paper's algorithm is one-handed)
//    and (b) measure congestion, the paper's key cost metric;
//  * rules return `std::optional<State>`: `nullopt` means the cell is
//    inactive this generation (keeps its state and performs no data
//    operation), matching Table 1's "active cells" accounting.
//
// Work-efficient sweeps (DESIGN.md §9): a rule may advertise a per-step
// `ActiveRegion` — a superset of the cells that can activate.  Under the
// sparse sweep mode (the default) the engine iterates, chunks and commits
// only that region; every other cell implicitly carries its state, exactly
// what an inactive rule invocation would have produced.  Under the dense
// mode the region is ignored and the whole field sweeps — states, history
// and the logical (Table-1) statistics are bit-identical either way; only
// the physical `cells_swept` counter and timings differ.
//
// Storage: the cells live in two `std::vector<State>` buffers (current and
// next generation); every generation runs the rule through the mediated
// `Reader`, so there is one sweep path and one layout.
//
// Execution is configured through `EngineOptions` (gca/execution.hpp):
// one thread sweeps on the caller, more sweep on a persistent shared
// worker pool (gca/thread_pool.hpp).  Cells are independent within a
// generation, so the parallel sweep is embarrassingly parallel;
// instrumentation is merged per-worker in lane order, and every width
// partitions the active index set into contiguous chunks, which keeps the
// results bit-identical across thread counts.  Per-worker scratch
// (congestion counts, active counters) persists across steps, so a
// steady-state pool step performs no allocation and no thread creation.
//
// Robustness extension points (used by src/fault/):
//  * observers — callbacks invoked after every completed step, with the
//    post-step states visible (invariant monitors register here);
//  * snapshot()/restore() — copy-out/copy-in of the full cell state for
//    checkpoint/rollback recovery;
//  * a read override — an interposer consulted on every mediated global
//    read, which models faulty reads (dropped or misrouted accesses)
//    without touching the rules;
//  * deadlines/cancellation (gca/cancel.hpp) — a CancelToken and/or an
//    absolute deadline polled at every chunk boundary of every backend; a
//    tripped signal throws before the commit, leaving the field on the
//    previous generation.  Zero cost while neither is installed.
//
// Observability (gca/metrics.hpp): any number of `MetricsSink`s can be
// attached alongside the observers.  While at least one sink is attached,
// every step is wall-clock timed (plus per-lane timing for parallel
// sweeps) and the completed step's stats are pushed to each sink; with no
// sink attached the engine performs no clock reads at all.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "gca/cancel.hpp"
#include "gca/execution.hpp"
#include "gca/instrumentation.hpp"
#include "gca/metrics.hpp"
#include "gca/thread_pool.hpp"

namespace gcalib::gca {

/// One recorded read access: (reading cell, target cell).
struct AccessEdge {
  std::size_t reader = 0;
  std::size_t target = 0;
  friend bool operator==(const AccessEdge&, const AccessEdge&) = default;
  friend auto operator<=>(const AccessEdge&, const AccessEdge&) = default;
};

template <typename State>
class Engine {
 public:
  /// Primary constructor: engine over the given initial cell states,
  /// configured by a validated `EngineOptions` aggregate.
  Engine(std::vector<State> initial, EngineOptions options)
      : cells_(std::move(initial)), next_(cells_.size()) {
    GCALIB_EXPECTS_MSG(!cells_.empty(), "engine requires at least one cell");
    set_options(options);
  }

  /// Default-configured engine — shorthand for
  /// `Engine(initial, EngineOptions{})` (one hand, sequential, sparse).
  explicit Engine(std::vector<State> initial)
      : Engine(std::move(initial), EngineOptions{}) {}

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] std::size_t hands() const { return options_.hands; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// The current execution configuration.
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// Replaces the execution configuration wholesale (validated).  Safe
  /// between steps; a width above one (re)acquires the shared pool of that
  /// width.  A rejected configuration leaves the options untouched.
  void set_options(const EngineOptions& options) {
    options.validate();
    options_ = options;
    acquire_pool();
  }

  [[nodiscard]] const State& state(std::size_t i) const {
    GCALIB_EXPECTS(i < cells_.size());
    return cells_[i];
  }

  /// All cell states of the current generation.
  [[nodiscard]] const std::vector<State>& states() const { return cells_; }

  /// Host-side mutation (initialisation only; not part of the GCA model).
  [[nodiscard]] State& mutable_state(std::size_t i) {
    GCALIB_EXPECTS(i < cells_.size());
    return cells_[i];
  }

  /// Host-side write of a full cell state (fault injection).
  void set_state(std::size_t i, const State& value) { mutable_state(i) = value; }

  [[nodiscard]] bool instrumentation() const { return options_.instrumentation; }

  /// Individual (reader, target) access edges of the most recent step,
  /// recorded while `EngineOptions::record_access` is set; empty otherwise.
  [[nodiscard]] const std::vector<AccessEdge>& last_access() const {
    return last_access_;
  }

  /// Active-cell mask of the most recent step.  Maintained only while
  /// instrumentation is enabled (a full-field mask would defeat the
  /// sparse sweep's work bound); empty otherwise.
  [[nodiscard]] const std::vector<std::uint8_t>& last_active() const {
    return last_active_;
  }

  // --- robustness extension points -------------------------------------

  /// Observer invoked after every completed step; `engine.states()` shows
  /// the post-step generation the observer may validate.
  ///
  /// Re-entrancy semantics: observers (and metrics sinks) may call
  /// `add_observer` / `remove_observer` / `add_sink` / `remove_sink` from
  /// inside a callback.  A removal takes effect immediately — the removed
  /// callback is not invoked again, not even later in the same step's
  /// notification round — while an addition takes effect from the *next*
  /// step.  Calling `step()` from inside a callback is rejected.
  using Observer = std::function<void(const Engine&, const GenerationStats&)>;

  /// Registers an observer; returns an id for `remove_observer`.
  std::size_t add_observer(Observer observer) {
    GCALIB_EXPECTS(observer != nullptr);
    const std::size_t id = next_observer_id_++;
    if (notifying_) {
      pending_observers_.emplace_back(id, std::move(observer));
    } else {
      observers_.emplace_back(id, std::move(observer));
    }
    return id;
  }

  /// Removes a previously registered observer (no-op on unknown ids).
  /// Safe to call from inside an observer callback (including an observer
  /// removing itself); see the `Observer` re-entrancy semantics.
  void remove_observer(std::size_t id) {
    if (notifying_) {
      // The notification loop iterates `observers_` by index: null the
      // entry in place (skipped, compacted afterwards) instead of erasing
      // mid-iteration.
      for (auto& [oid, callback] : observers_) {
        if (oid == id) callback = nullptr;
      }
      std::erase_if(pending_observers_,
                    [id](const auto& entry) { return entry.first == id; });
    } else {
      std::erase_if(observers_,
                    [id](const auto& entry) { return entry.first == id; });
    }
  }

  [[nodiscard]] std::size_t observer_count() const {
    std::size_t count = pending_observers_.size();
    for (const auto& [id, callback] : observers_) {
      if (callback != nullptr) ++count;
    }
    return count;
  }

  // --- observability (gca/metrics.hpp) ----------------------------------

  /// Attaches a metrics sink (non-owning; the sink must stay alive until
  /// removed or the engine is destroyed).  While at least one sink is
  /// attached every step is timed and pushed to all sinks.  Returns an id
  /// for `remove_sink`.  Shares the observers' re-entrancy semantics.
  std::size_t add_sink(MetricsSink* sink) {
    GCALIB_EXPECTS(sink != nullptr);
    const std::size_t id = next_observer_id_++;
    if (notifying_) {
      pending_sinks_.emplace_back(id, sink);
    } else {
      sinks_.emplace_back(id, sink);
    }
    return id;
  }

  /// Detaches a previously attached sink (no-op on unknown ids); safe from
  /// inside a callback.
  void remove_sink(std::size_t id) {
    if (notifying_) {
      for (auto& [sid, sink] : sinks_) {
        if (sid == id) sink = nullptr;
      }
      std::erase_if(pending_sinks_,
                    [id](const auto& entry) { return entry.first == id; });
    } else {
      std::erase_if(sinks_,
                    [id](const auto& entry) { return entry.first == id; });
    }
  }

  [[nodiscard]] std::size_t sink_count() const {
    std::size_t count = pending_sinks_.size();
    for (const auto& [id, sink] : sinks_) {
      if (sink != nullptr) ++count;
    }
    return count;
  }

  /// Full copy of the machine state, sufficient to re-execute from this
  /// point (instrumentation history is append-only and not part of it).
  struct Snapshot {
    std::vector<State> cells;
    std::uint64_t generation = 0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{cells_, generation_};
  }

  /// Rolls the engine back to a snapshot taken on this engine (same field).
  void restore(const Snapshot& snap) {
    GCALIB_EXPECTS_MSG(snap.cells.size() == cells_.size(),
                       "snapshot does not match this engine's field");
    cells_ = snap.cells;
    generation_ = snap.generation;
  }

  /// Fault-injection interposer: consulted on every mediated read.  Return
  /// nullopt to let the read proceed normally; otherwise the returned state
  /// is observed instead of the addressed neighbour.  Must be thread-safe
  /// when a parallel sweep is enabled (treat it as read-only during a
  /// step).
  using ReadOverride = std::function<std::optional<State>(std::size_t reader,
                                                          std::size_t target)>;

  void set_read_override(ReadOverride override) {
    read_override_ = std::move(override);
  }
  [[nodiscard]] bool has_read_override() const {
    return static_cast<bool>(read_override_);
  }

  // --- deadlines and cooperative cancellation (gca/cancel.hpp) ----------
  //
  // Both signals are polled at step entry and at every chunk boundary of
  // every sweep backend; a tripped signal throws `Cancelled` /
  // `DeadlineExceeded` *before* the commit, so the field keeps the previous
  // generation.  With neither installed the cost is two scalar compares per
  // step and nothing per cell.

  /// Installs an external kill switch (non-owning; nullptr detaches).  The
  /// token is only ever read during a step — trip it from any thread.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Absolute steady-clock deadline in nanoseconds (steady_deadline_ns);
  /// 0 disables deadline enforcement.
  void set_deadline_ns(std::int64_t deadline_ns) { deadline_ns_ = deadline_ns; }

  [[nodiscard]] bool has_stop_signal() const {
    return cancel_ != nullptr || deadline_ns_ != 0;
  }

  /// Mediates global reads for one cell during one generation.
  class Reader {
   public:
    /// Returns the state of `target` as of the *previous* generation.  The
    /// reference stays valid until this Reader's next read (an override
    /// lands in a slot inside the Reader).
    const State& operator()(std::size_t target) {
      GCALIB_EXPECTS(target < engine_.cells_.size());
      GCALIB_EXPECTS_MSG(reads_ < engine_.options_.hands,
                         "cell exceeded its k-handed read budget");
      ++reads_;
      if (counts_ != nullptr) ++(*counts_)[target];
      if (edges_ != nullptr) edges_->push_back(AccessEdge{self_, target});
      if (engine_.read_override_) {
        if (std::optional<State> faulty =
                engine_.read_override_(self_, target)) {
          override_slot_ = *std::move(faulty);
          return *override_slot_;
        }
      }
      return engine_.cells_[target];
    }

    /// Reads performed so far by this cell in this generation.
    [[nodiscard]] std::size_t reads() const { return reads_; }

   private:
    friend class Engine;
    Reader(const Engine& engine, std::size_t self,
           std::vector<std::size_t>* counts, std::vector<AccessEdge>* edges)
        : engine_(engine), self_(self), counts_(counts), edges_(edges) {}

    const Engine& engine_;
    std::size_t self_;
    std::size_t reads_ = 0;
    std::vector<std::size_t>* counts_;
    std::vector<AccessEdge>* edges_;
    std::optional<State> override_slot_;  ///< backs overridden reads
  };

  /// Executes one synchronous generation over the whole field.
  /// `rule(index, reader) -> std::optional<State>`; `nullopt` keeps the old
  /// state and marks the cell inactive.
  template <typename Rule>
  GenerationStats step(Rule&& rule, std::string label = {}) {
    return step(std::forward<Rule>(rule), ActiveRegion::full(cells_.size()),
                std::move(label));
  }

  /// Executes one synchronous generation whose rule promises that every
  /// cell outside `region` is inactive (returns nullopt without reading).
  /// Under the sparse sweep mode only the region is iterated; under the
  /// dense mode the whole field sweeps.  Both produce identical states and
  /// logical statistics — the region is validated, the promise is not
  /// (run a dense sweep to check a suspect region, see DESIGN.md §9).
  template <typename Rule>
  GenerationStats step(Rule&& rule, const ActiveRegion& region,
                       std::string label = {}) {
    validate_region(region);
    const bool sparse = options_.sweep == SweepMode::kSparse;
    return run_step(rule,
                    sparse ? region : ActiveRegion::full(cells_.size()),
                    std::move(label));
  }

  [[nodiscard]] const std::vector<GenerationStats>& history() const {
    return history_;
  }
  void clear_history() { history_.clear(); }

 private:
  /// Polls the stop signals; throws before any state is committed.  Called
  /// at step entry and between chunks; thread-safe (token reads are atomic,
  /// the deadline is immutable during a step).
  void poll_stop() const {
    if (cancel_ != nullptr && cancel_->cancel_requested()) {
      throw Cancelled("sweep cancelled at generation " +
                      std::to_string(generation_));
    }
    if (deadline_ns_ != 0 &&
        steady_now_ns() >= deadline_ns_) {
      throw DeadlineExceeded("deadline expired at generation " +
                             std::to_string(generation_));
    }
  }

  /// Enumeration-positions per poll on the sequential backend (parallel
  /// backends poll per lane chunk, which is already of this order).
  static constexpr std::size_t kStopPollStride = 4096;

  [[nodiscard]] static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Rejects malformed regions: overlap between rows (which would visit an
  /// index twice) and out-of-field indices.  Empty regions are fine — the
  /// step still runs (and records a generation) with zero work.
  void validate_region(const ActiveRegion& region) const {
    GCALIB_EXPECTS_MSG(region.col_step >= 1,
                       "active region: col_step must be >= 1");
    const std::size_t work = region.count();
    if (work == 0) return;
    GCALIB_EXPECTS_MSG(
        region.row_end - region.row_begin <= 1 ||
            region.col_end <= region.row_stride,
        "active region: column range exceeds the row stride (rows overlap)");
    const std::size_t last =
        (region.row_end - 1) * region.row_stride + region.col_begin +
        (region.cols_per_row() - 1) * region.col_step;
    GCALIB_EXPECTS_MSG(last < cells_.size(),
                       "active region exceeds the field");
  }

  template <typename Rule>
  GenerationStats run_step(Rule& rule, const ActiveRegion& region,
                           std::string label) {
    GCALIB_EXPECTS_MSG(!notifying_,
                       "Engine::step must not be called from an observer or "
                       "metrics-sink callback");
    if (has_stop_signal()) poll_stop();
    GenerationStats stats;
    stats.generation = generation_;
    stats.label = std::move(label);
    stats.cell_count = cells_.size();
    const std::size_t work = region.count();
    stats.cells_swept = work;

    if (options_.instrumentation) {
      last_active_.assign(cells_.size(), 0);
    } else {
      last_active_.clear();
    }
    last_access_.clear();

    // Timing runs only while a sink is attached, so the un-instrumented
    // hot path performs no clock reads.
    const bool timed = !sinks_.empty();
    const std::uint64_t sweep_start = timed ? now_ns() : 0;

    const unsigned t = options_.threads;
    if (!options_.parallel() || work < 2 * t) {
      if (options_.instrumentation) scratch_count(0).assign(cells_.size(), 0);
      std::vector<std::size_t>* counts =
          options_.instrumentation ? &scratch_count(0) : nullptr;
      std::vector<AccessEdge>* edges =
          options_.record_access ? &last_access_ : nullptr;
      if (has_stop_signal()) {
        // Chunked sweep with a stop poll between chunks; counts and edges
        // accumulate across chunks exactly as in the single call.
        for (std::size_t k = 0; k < work; k += kStopPollStride) {
          poll_stop();
          sweep_region(rule, region, k, std::min(work, k + kStopPollStride),
                       counts, edges, stats.active_cells);
        }
      } else {
        sweep_region(rule, region, 0, work, counts, edges,
                     stats.active_cells);
      }
      if (options_.instrumentation) fold_counts(scratch_count(0), stats);
    } else {
      // set_options validates every configuration, so a parallel sweep
      // with access recording cannot be reached.
      GCALIB_ASSERT_MSG(!options_.record_access,
                        "access-edge recording requires a sequential sweep");
      sweep_parallel(rule, region, work, stats, timed);
    }

    if (timed) {
      stats.start_ns = sweep_start;
      stats.duration_ns = now_ns() - sweep_start;
    }

    commit(region, work);
    ++generation_;
    if (options_.instrumentation) history_.push_back(stats);
    notify(stats);
    return stats;
  }

  /// Publishes the next-state buffer: a whole-field region swaps the
  /// double buffers (the classic synchronous commit); a partial region
  /// copies back only its own cells — everything else keeps its state
  /// without ever being touched.
  ///
  /// Row-contiguous partial regions (full-width rows, e.g. the Hirschberg
  /// square inside the (n+1) x n field) take a third path when it is
  /// cheaper: copy the *complement* spans current -> next and swap — the
  /// commit is then O(inactive cells) of contiguous copies instead of
  /// O(active cells) per-index copies.  Every region cell of the next
  /// buffer was written by the sweep (inactive rule invocations carry), so
  /// after the copy the next buffer is complete and swapping publishes
  /// exactly the same field as the per-index path.
  void commit(const ActiveRegion& region, std::size_t work) {
    if (work == cells_.size()) {
      cells_.swap(next_);
      return;
    }
    if (region.col_begin == 0 && region.col_step == 1 &&
        region.col_end == region.row_stride && work > 0) {
      const std::size_t head_end = region.row_begin * region.row_stride;
      const std::size_t tail_begin = region.row_end * region.row_stride;
      if (head_end + (cells_.size() - tail_begin) < work) {
        std::copy_n(cells_.begin(), head_end, next_.begin());
        const auto tail = static_cast<std::ptrdiff_t>(tail_begin);
        std::copy(cells_.begin() + tail, cells_.end(), next_.begin() + tail);
        cells_.swap(next_);
        return;
      }
    }
    region.for_each(0, work, [this](std::size_t i) { cells_[i] = next_[i]; });
  }

  /// Invokes observers, then sinks, with deferred add/remove semantics
  /// (see `Observer`): callbacks registered during the round start next
  /// step, removed ones are skipped immediately and compacted afterwards.
  void notify(const GenerationStats& stats) {
    if (observers_.empty() && sinks_.empty() && pending_observers_.empty() &&
        pending_sinks_.empty()) {
      return;
    }
    notifying_ = true;
    try {
      for (std::size_t i = 0; i < observers_.size(); ++i) {
        if (observers_[i].second) observers_[i].second(*this, stats);
      }
      for (std::size_t i = 0; i < sinks_.size(); ++i) {
        if (sinks_[i].second != nullptr) sinks_[i].second->on_step(stats);
      }
    } catch (...) {
      finish_notify();
      throw;
    }
    finish_notify();
  }

  void finish_notify() {
    notifying_ = false;
    std::erase_if(observers_,
                  [](const auto& entry) { return entry.second == nullptr; });
    for (auto& entry : pending_observers_) {
      observers_.push_back(std::move(entry));
    }
    pending_observers_.clear();
    std::erase_if(sinks_,
                  [](const auto& entry) { return entry.second == nullptr; });
    sinks_.insert(sinks_.end(), pending_sinks_.begin(), pending_sinks_.end());
    pending_sinks_.clear();
  }

  void acquire_pool() {
    if (options_.parallel()) {
      // The sweep is always partitioned into `threads` chunks (that fixes
      // the results and statistics), but more OS threads than cores only
      // adds context switching — so the pool is clamped to the hardware
      // and lanes pull chunks off a cursor.
      const unsigned hardware =
          std::max(1u, std::thread::hardware_concurrency());
      const unsigned width = std::min(options_.threads, hardware);
      if (!pool_ || pool_->width() != width) pool_ = ThreadPool::shared(width);
    } else {
      pool_.reset();
    }
  }

  /// Per-worker congestion-count scratch; grown on demand, zeroed in place
  /// every step (capacity persists, so the steady state never allocates).
  std::vector<std::size_t>& scratch_count(unsigned worker) {
    if (scratch_counts_.size() <= worker) scratch_counts_.resize(worker + 1);
    return scratch_counts_[worker];
  }

  template <typename Rule>
  void sweep_region(Rule& rule, const ActiveRegion& region,
                    std::size_t k_begin, std::size_t k_end,
                    std::vector<std::size_t>* counts,
                    std::vector<AccessEdge>* edges, std::size_t& active) {
    const bool mask = !last_active_.empty();
    region.for_each(k_begin, k_end, [&](std::size_t i) {
      Reader reader(*this, i, counts, edges);
      std::optional<State> result = rule(i, reader);
      if (result.has_value()) {
        next_[i] = *std::move(result);
        if (mask) last_active_[i] = 1;
        ++active;
      } else {
        next_[i] = cells_[i];
      }
    });
  }

  /// Partitions [0, work) into `threads` contiguous chunks and runs
  /// `chunk_fn(w, begin, end)` for each — every chunk exactly once — on
  /// the shared pool, recording per-lane timing into `scratch_lanes_` when
  /// `timed`.
  template <typename ChunkFn>
  void run_chunks(std::size_t work, bool timed, ChunkFn&& chunk_fn) {
    const unsigned t = options_.threads;
    if (timed) scratch_lanes_.assign(t, LaneTiming{});
    const std::size_t chunk = (work + t - 1) / t;
    auto lane = [this, &chunk_fn, chunk, work, timed](unsigned w) {
      const std::size_t begin = std::min(work, std::size_t{w} * chunk);
      const std::size_t end = std::min(work, begin + chunk);
      const std::uint64_t lane_start = timed ? now_ns() : 0;
      // Chunk-boundary stop poll: the pool captures lane exceptions and
      // rethrows the first on the dispatching thread, so a tripped signal
      // unwinds the step before the commit.
      if (has_stop_signal()) poll_stop();
      chunk_fn(w, begin, end);
      if (timed) {
        scratch_lanes_[w] =
            LaneTiming{w, lane_start, now_ns() - lane_start, end - begin};
      }
    };

    GCALIB_ASSERT(pool_ != nullptr);
    // Lanes pull chunks off a shared cursor: each of the t chunks runs
    // exactly once with its own scratch, so the result depends on t alone,
    // not on how many lanes the pool has.
    std::atomic<unsigned> cursor{0};
    auto pool_lane = [&lane, &cursor, t](unsigned) {
      for (unsigned w = cursor.fetch_add(1, std::memory_order_relaxed); w < t;
           w = cursor.fetch_add(1, std::memory_order_relaxed)) {
        lane(w);
      }
    };
    pool_->run(std::min(t, pool_->width()), pool_lane);
  }

  template <typename Rule>
  void sweep_parallel(Rule& rule, const ActiveRegion& region,
                      std::size_t work, GenerationStats& stats, bool timed) {
    const unsigned t = options_.threads;
    const bool counting = options_.instrumentation;
    scratch_actives_.assign(t, 0);
    if (counting) {
      for (unsigned w = 0; w < t; ++w) {
        scratch_count(w).assign(cells_.size(), 0);
      }
    }
    run_chunks(work, timed,
               [this, &rule, &region, counting](unsigned w, std::size_t begin,
                                                std::size_t end) {
                 sweep_region(rule, region, begin, end,
                              counting ? &scratch_counts_[w] : nullptr,
                              nullptr, scratch_actives_[w]);
               });

    if (timed) {
      stats.lane_times.assign(scratch_lanes_.begin(),
                              scratch_lanes_.begin() + t);
    }
    for (std::size_t a : scratch_actives_) stats.active_cells += a;
    if (counting) {
      std::vector<std::size_t>& merged = scratch_counts_[0];
      for (unsigned w = 1; w < t; ++w) {
        const std::vector<std::size_t>& part = scratch_counts_[w];
        for (std::size_t i = 0; i < merged.size(); ++i) merged[i] += part[i];
      }
      fold_counts(merged, stats);
    }
  }

  void fold_counts(const std::vector<std::size_t>& counts,
                   GenerationStats& stats) const {
    for (std::size_t c : counts) {
      if (c == 0) continue;
      ++stats.cells_read;
      stats.total_reads += c;
      stats.max_congestion = std::max(stats.max_congestion, c);
      ++stats.congestion_classes[c];
    }
  }

  std::vector<State> cells_;  ///< the current generation
  std::vector<State> next_;   ///< the generation being swept
  EngineOptions options_;
  std::uint64_t generation_ = 0;
  std::vector<AccessEdge> last_access_;
  std::vector<std::uint8_t> last_active_;
  std::vector<GenerationStats> history_;
  std::vector<std::pair<std::size_t, Observer>> observers_;
  std::vector<std::pair<std::size_t, MetricsSink*>> sinks_;
  // Deferred registrations made during a notification round (observers_
  // and sinks_ are iterated by index then; see `Observer` semantics).
  std::vector<std::pair<std::size_t, Observer>> pending_observers_;
  std::vector<std::pair<std::size_t, MetricsSink*>> pending_sinks_;
  bool notifying_ = false;
  std::size_t next_observer_id_ = 0;
  ReadOverride read_override_;
  const CancelToken* cancel_ = nullptr;  ///< external kill switch (non-owning)
  std::int64_t deadline_ns_ = 0;         ///< steady-clock deadline; 0 = none
  std::shared_ptr<ThreadPool> pool_;
  // Persistent parallel-sweep scratch (reused across steps).
  std::vector<std::vector<std::size_t>> scratch_counts_;
  std::vector<std::size_t> scratch_actives_;
  std::vector<LaneTiming> scratch_lanes_;
};

}  // namespace gcalib::gca
