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
// Storage layout: by default cells live in one `std::vector<State>` (AoS).
// A `State` type can opt into a struct-of-arrays layout by specialising
// `SoaLayout<State>`, splitting the state into an immutable part (written
// only by host-side `set_state`) and a double-buffered mutable part.  The
// accessor API is unchanged except that `state(i)`/reads return the state
// *by value* and `mutable_state` is unavailable (use `set_state`).  SoA
// engines additionally support `step_bulk`: an un-mediated generation whose
// kernel writes the next-state arrays directly (gca/kernels.hpp).
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
//    checkpoint/rollback recovery (SoA engines snapshot the SoA buffers,
//    immutable part included, so a bit flip injected into the immutable
//    register is also rolled back);
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
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "gca/cancel.hpp"
#include "gca/execution.hpp"
#include "gca/instrumentation.hpp"
#include "gca/metrics.hpp"
#include "gca/thread_pool.hpp"
#include "gca/worklist.hpp"

namespace gcalib::gca {

/// One recorded read access: (reading cell, target cell).
struct AccessEdge {
  std::size_t reader = 0;
  std::size_t target = 0;
  friend bool operator==(const AccessEdge&, const AccessEdge&) = default;
  friend auto operator<=>(const AccessEdge&, const AccessEdge&) = default;
};

/// Customisation point: opt a `State` type into the struct-of-arrays field
/// layout.  The primary template keeps the array-of-structs vector; a
/// specialisation with `kEnabled = true` must provide
///
///   struct Immutable;  // arrays written only by host-side set_state
///   struct Mutable;    // arrays double-buffered across generations
///   static void init(const std::vector<State>&, Immutable&, Mutable&);
///   static void resize(Mutable&, std::size_t);
///   static std::size_t size(const Mutable&);
///   static State load(const Immutable&, const Mutable&, std::size_t);
///   static void store(const Immutable&, Mutable&, std::size_t,
///                     const State&);   // mutable part only; asserts the
///                                      // immutable part was not changed
///   static void store_host(Immutable&, Mutable&, std::size_t,
///                          const State&);  // all registers (host mutation)
///   static void copy(const Mutable& from, Mutable& to, std::size_t);
///
/// Optionally, a layout may provide
///
///   static void copy_span(const Mutable& from, Mutable& to,
///                         std::size_t begin, std::size_t end);
///
/// — a contiguous bulk copy the complement-swap commit uses instead of
/// per-index `copy` calls (detected with `requires`; absent layouts fall
/// back to the per-index loop).
///
/// (core/hirschberg_gca.hpp specialises this for core::Cell: `a` is
/// immutable after initialisation, `d`/`p` are double-buffered.)
template <typename State>
struct SoaLayout {
  static constexpr bool kEnabled = false;
};

namespace detail {

/// Cell storage behind the engine: AoS primary, SoA specialisation.  Both
/// expose the same interface; `ReadResult` is `const State&` for AoS and
/// `State` (by value, composed from the arrays) for SoA.
template <typename State, bool kSoa>
class FieldStore;

template <typename State>
class FieldStore<State, false> {
 public:
  using ReadResult = const State&;
  using SnapshotData = std::vector<State>;

  explicit FieldStore(std::vector<State> initial)
      : cells_(std::move(initial)), next_(cells_.size()) {}

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] const State& read(std::size_t i) const { return cells_[i]; }
  [[nodiscard]] const std::vector<State>& states() const { return cells_; }
  [[nodiscard]] State& mutable_ref(std::size_t i) { return cells_[i]; }
  void set_state(std::size_t i, const State& value) { cells_[i] = value; }
  void write_next(std::size_t i, State value) { next_[i] = std::move(value); }
  void carry_next(std::size_t i) { next_[i] = cells_[i]; }
  void commit_full() { cells_.swap(next_); }
  void commit_index(std::size_t i) { cells_[i] = next_[i]; }
  /// Complement-swap commit for row-contiguous partial regions: copies the
  /// untouched spans [0, head_end) and [tail_begin, size) current -> next,
  /// then swaps the buffers (see Engine::commit).
  void commit_span_swap(std::size_t head_end, std::size_t tail_begin) {
    std::copy_n(cells_.begin(), head_end, next_.begin());
    std::copy(cells_.begin() + static_cast<std::ptrdiff_t>(tail_begin),
              cells_.end(),
              next_.begin() + static_cast<std::ptrdiff_t>(tail_begin));
    cells_.swap(next_);
  }
  [[nodiscard]] SnapshotData snapshot() const { return cells_; }
  void restore(const SnapshotData& data) { cells_ = data; }
  [[nodiscard]] static std::size_t snapshot_size(const SnapshotData& data) {
    return data.size();
  }

 private:
  std::vector<State> cells_;
  std::vector<State> next_;
};

template <typename State>
class FieldStore<State, true> {
  using Layout = SoaLayout<State>;

 public:
  using ReadResult = State;
  struct SnapshotData {
    typename Layout::Immutable immutable;
    typename Layout::Mutable current;
  };

  explicit FieldStore(std::vector<State> initial) : size_(initial.size()) {
    Layout::init(initial, immutable_, current_);
    Layout::resize(next_, size_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] State read(std::size_t i) const {
    return Layout::load(immutable_, current_, i);
  }
  [[nodiscard]] std::vector<State> states() const {
    std::vector<State> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(read(i));
    return out;
  }
  void set_state(std::size_t i, const State& value) {
    Layout::store_host(immutable_, current_, i, value);
  }
  void write_next(std::size_t i, const State& value) {
    Layout::store(immutable_, next_, i, value);
  }
  void carry_next(std::size_t i) { Layout::copy(current_, next_, i); }
  void commit_full() { std::swap(current_, next_); }
  void commit_index(std::size_t i) { Layout::copy(next_, current_, i); }
  /// Complement-swap commit (see the AoS store); uses the layout's
  /// contiguous `copy_span` when it provides one.
  void commit_span_swap(std::size_t head_end, std::size_t tail_begin) {
    if constexpr (requires(const typename Layout::Mutable& from,
                           typename Layout::Mutable& to) {
                    Layout::copy_span(from, to, std::size_t{}, std::size_t{});
                  }) {
      Layout::copy_span(current_, next_, 0, head_end);
      Layout::copy_span(current_, next_, tail_begin, size_);
    } else {
      for (std::size_t i = 0; i < head_end; ++i) {
        Layout::copy(current_, next_, i);
      }
      for (std::size_t i = tail_begin; i < size_; ++i) {
        Layout::copy(current_, next_, i);
      }
    }
    std::swap(current_, next_);
  }
  [[nodiscard]] SnapshotData snapshot() const {
    return SnapshotData{immutable_, current_};
  }
  void restore(const SnapshotData& data) {
    immutable_ = data.immutable;
    current_ = data.current;
  }
  [[nodiscard]] static std::size_t snapshot_size(const SnapshotData& data) {
    return Layout::size(data.current);
  }

  // Raw array access for bulk kernels (step_bulk).
  [[nodiscard]] const typename Layout::Immutable& immutable() const {
    return immutable_;
  }
  [[nodiscard]] const typename Layout::Mutable& current() const {
    return current_;
  }
  [[nodiscard]] typename Layout::Mutable& next() { return next_; }

 private:
  std::size_t size_;
  typename Layout::Immutable immutable_;
  typename Layout::Mutable current_;
  typename Layout::Mutable next_;
};

}  // namespace detail

template <typename State>
class Engine {
  static constexpr bool kSoa = SoaLayout<State>::kEnabled;
  using Store = detail::FieldStore<State, kSoa>;

 public:
  /// What a mediated read (and `state(i)`) returns: a reference into the
  /// field for AoS states, a by-value composite for SoA states.
  using ReadResult = typename Store::ReadResult;

  /// Primary constructor: engine over the given initial cell states,
  /// configured by a validated `EngineOptions` aggregate.
  Engine(std::vector<State> initial, EngineOptions options)
      : store_(std::move(initial)) {
    GCALIB_EXPECTS_MSG(store_.size() > 0, "engine requires at least one cell");
    set_options(options);
  }

  /// Default-configured engine — shorthand for
  /// `Engine(initial, EngineOptions{})` (one hand, sequential, sparse).
  explicit Engine(std::vector<State> initial)
      : Engine(std::move(initial), EngineOptions{}) {}

  [[nodiscard]] std::size_t size() const { return store_.size(); }
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

  [[nodiscard]] ReadResult state(std::size_t i) const {
    GCALIB_EXPECTS(i < store_.size());
    return store_.read(i);
  }

  /// All cell states.  A reference to the backing vector for AoS engines;
  /// a freshly composed vector (by value) for SoA engines — either way the
  /// result compares with `==` against another engine's states.
  [[nodiscard]] decltype(auto) states() const { return store_.states(); }

  /// Host-side mutation (initialisation only; not part of the GCA model).
  /// AoS engines only — an SoA state has no single storage location to
  /// reference.  Use `set_state` for layout-agnostic host writes.
  [[nodiscard]] State& mutable_state(std::size_t i)
    requires(!kSoa)
  {
    GCALIB_EXPECTS(i < store_.size());
    return store_.mutable_ref(i);
  }

  /// Host-side write of a full cell state (works for both layouts; on SoA
  /// engines this is the only way to change the immutable registers, which
  /// is exactly what fault injection needs).
  void set_state(std::size_t i, const State& value) {
    GCALIB_EXPECTS(i < store_.size());
    store_.set_state(i, value);
  }

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

  /// Full copy of the mutable machine state, sufficient to re-execute from
  /// this point (instrumentation history is append-only and not part of it).
  /// For SoA engines `cells` holds the SoA buffers — immutable registers
  /// included, so restore() also rolls back host-injected corruption.
  struct Snapshot {
    typename Store::SnapshotData cells;
    std::uint64_t generation = 0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{store_.snapshot(), generation_};
  }

  /// Rolls the engine back to a snapshot taken on this engine (same field).
  void restore(const Snapshot& snap) {
    GCALIB_EXPECTS_MSG(Store::snapshot_size(snap.cells) == store_.size(),
                       "snapshot does not match this engine's field");
    store_.restore(snap.cells);
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
    /// Returns the state of `target` as of the *previous* generation.
    /// For AoS engines the reference stays valid until this Reader's next
    /// read (an override lands in a slot inside the Reader); SoA engines
    /// return by value.
    ReadResult operator()(std::size_t target) {
      GCALIB_EXPECTS(target < engine_.store_.size());
      GCALIB_EXPECTS_MSG(reads_ < engine_.options_.hands,
                         "cell exceeded its k-handed read budget");
      ++reads_;
      if (counts_ != nullptr) ++(*counts_)[target];
      if (edges_ != nullptr) edges_->push_back(AccessEdge{self_, target});
      if (engine_.read_override_) {
        if (std::optional<State> faulty =
                engine_.read_override_(self_, target)) {
          if constexpr (std::is_reference_v<ReadResult>) {
            override_slot_ = *std::move(faulty);
            return *override_slot_;
          } else {
            return *std::move(faulty);
          }
        }
      }
      return engine_.store_.read(target);
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
    std::optional<State> override_slot_;  ///< backs overridden AoS reads
  };

  /// Executes one synchronous generation over the whole field.
  /// `rule(index, reader) -> std::optional<State>`; `nullopt` keeps the old
  /// state and marks the cell inactive.
  template <typename Rule>
  GenerationStats step(Rule&& rule, std::string label = {}) {
    return step(std::forward<Rule>(rule), ActiveRegion::full(store_.size()),
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
                    sparse ? region : ActiveRegion::full(store_.size()),
                    std::move(label));
  }

  // --- bulk (kernel) steps — SoA engines only ---------------------------

  /// Raw SoA arrays for bulk kernels: the immutable registers, the current
  /// generation (read-only during a step) and the next-generation buffers
  /// (`SoaLayout<State>::Immutable` / `::Mutable`).
  [[nodiscard]] const auto& soa_immutable() const
    requires kSoa
  {
    return store_.immutable();
  }
  [[nodiscard]] const auto& soa_current() const
    requires kSoa
  {
    return store_.current();
  }
  [[nodiscard]] auto& soa_next()
    requires kSoa
  {
    return store_.next();
  }

  /// Executes one generation as a bulk kernel: `bulk(k_begin, k_end)` must
  /// write the next state of every region cell at enumeration positions
  /// [k_begin, k_end) straight into `soa_next()`, reading `soa_current()` /
  /// `soa_immutable()`.  The kernel bypasses read mediation entirely, so
  /// bulk steps are rejected while instrumentation, access recording or a
  /// read override is active — the caller falls back to the equivalent
  /// mediated rule in those configurations.  Every region cell counts as
  /// active (bulk kernels implement generations whose region is exactly
  /// the active set).
  template <typename Bulk>
  GenerationStats step_bulk(const ActiveRegion& region, Bulk&& bulk,
                            std::string label = {})
    requires kSoa
  {
    validate_region(region);
    const std::size_t work = region.count();
    return bulk_step_impl(
        work, work, std::forward<Bulk>(bulk), std::move(label),
        [this, &region, work] { commit(region, work); });
  }

  /// Span form of a bulk step: physically sweeps every cell of `region`
  /// (the kernel must *carry* d/p through at inactive cells) but reports
  /// `logical_active` as the generation's active-cell count, keeping the
  /// Table-1 accounting identical to the strided window it replaces.  Used
  /// by the SIMD row-min span kernels, where a contiguous sweep plus the
  /// complement-swap commit beats a strided enumeration.
  template <typename Bulk>
  GenerationStats step_bulk(const ActiveRegion& region,
                            std::size_t logical_active, Bulk&& bulk,
                            std::string label = {})
    requires kSoa
  {
    validate_region(region);
    const std::size_t work = region.count();
    return bulk_step_impl(
        work, logical_active, std::forward<Bulk>(bulk), std::move(label),
        [this, &region, work] { commit(region, work); });
  }

  /// Worklist form of a bulk step: the kernel receives positions
  /// [k_begin, k_end) into the ascending index list (gca/worklist.hpp) and
  /// must write exactly those cells; the commit publishes exactly those
  /// indices.  The list's ascending invariant is enforced at build time,
  /// so only the largest index needs a bounds check here.  Chunking the
  /// position range partitions the same ordered sequence on every backend
  /// — bit-identical at any thread count.
  template <typename Bulk>
  GenerationStats step_bulk(const Worklist& list, Bulk&& bulk,
                            std::string label = {})
    requires kSoa
  {
    if (!list.empty()) {
      GCALIB_EXPECTS_MSG(list.max_index() < store_.size(),
                         "worklist exceeds the field");
    }
    const std::size_t work = list.size();
    return bulk_step_impl(work, work, std::forward<Bulk>(bulk),
                          std::move(label), [this, &list] {
                            for (const std::uint32_t i : list.indices()) {
                              store_.commit_index(i);
                            }
                          });
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
    GCALIB_EXPECTS_MSG(last < store_.size(),
                       "active region exceeds the field");
  }

  /// Shared body of the three step_bulk forms: runs `bulk` over
  /// [0, work) positions (chunked across lanes / stop polls), then invokes
  /// `commit_fn` to publish and advances the generation.  `logical_active`
  /// is what the stats report as active (== work except for span sweeps).
  template <typename Bulk, typename CommitFn>
  GenerationStats bulk_step_impl(std::size_t work, std::size_t logical_active,
                                 Bulk&& bulk, std::string label,
                                 CommitFn&& commit_fn)
    requires kSoa
  {
    GCALIB_EXPECTS_MSG(!notifying_,
                       "Engine::step_bulk must not be called from an observer "
                       "or metrics-sink callback");
    GCALIB_EXPECTS_MSG(
        !options_.instrumentation && !options_.record_access &&
            !read_override_,
        "bulk steps bypass read mediation; disable instrumentation, access "
        "recording and read overrides or use the mediated rule");
    if (has_stop_signal()) poll_stop();
    GenerationStats stats;
    stats.generation = generation_;
    stats.label = std::move(label);
    stats.cell_count = store_.size();
    stats.cells_swept = work;
    stats.active_cells = logical_active;
    last_active_.clear();
    last_access_.clear();

    const bool timed = !sinks_.empty();
    const std::uint64_t sweep_start = timed ? now_ns() : 0;

    const unsigned t = options_.threads;
    if (!options_.parallel() || work < 2 * t) {
      if (has_stop_signal()) {
        for (std::size_t k = 0; k < work; k += kStopPollStride) {
          poll_stop();
          bulk(k, std::min(work, k + kStopPollStride));
        }
      } else {
        bulk(std::size_t{0}, work);
      }
    } else {
      run_chunks(work, timed,
                 [&bulk](unsigned, std::size_t begin, std::size_t end) {
                   bulk(begin, end);
                 });
      if (timed) {
        stats.lane_times.assign(scratch_lanes_.begin(),
                                scratch_lanes_.begin() + t);
      }
    }

    if (timed) {
      stats.start_ns = sweep_start;
      stats.duration_ns = now_ns() - sweep_start;
    }

    commit_fn();
    ++generation_;
    notify(stats);
    return stats;
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
    stats.cell_count = store_.size();
    const std::size_t work = region.count();
    stats.cells_swept = work;

    if (options_.instrumentation) {
      last_active_.assign(store_.size(), 0);
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
      if (options_.instrumentation) scratch_count(0).assign(store_.size(), 0);
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
  /// O(active cells) per-index copies.  Valid for both mediated and bulk
  /// steps: every region cell of the next buffer was written by the sweep
  /// (inactive rule invocations carry, bulk kernels write every position),
  /// so after the copy the next buffer is complete and swapping publishes
  /// exactly the same field as the per-index path.
  void commit(const ActiveRegion& region, std::size_t work) {
    if (work == store_.size()) {
      store_.commit_full();
      return;
    }
    if (region.col_begin == 0 && region.col_step == 1 &&
        region.col_end == region.row_stride && work > 0) {
      const std::size_t head_end = region.row_begin * region.row_stride;
      const std::size_t tail_begin = region.row_end * region.row_stride;
      if (head_end + (store_.size() - tail_begin) < work) {
        store_.commit_span_swap(head_end, tail_begin);
        return;
      }
    }
    region.for_each(0, work,
                    [this](std::size_t i) { store_.commit_index(i); });
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
        store_.write_next(i, *std::move(result));
        if (mask) last_active_[i] = 1;
        ++active;
      } else {
        store_.carry_next(i);
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
        scratch_count(w).assign(store_.size(), 0);
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

  Store store_;
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
