// Structured tracing and metrics for GCA engine runs.
//
// The paper's whole evaluation is measurement — active cells, reads,
// congestion per generation — but a production-scale simulator also needs
// to see where generations spend *time*: per-step wall-clock, per-lane
// utilisation of the parallel sweeps, and the overhead instrumentation
// itself adds.  This header provides that layer:
//
//  * `MetricsSink` — the pluggable per-step consumer interface.  Engines
//    accept any number of sinks (Engine::add_sink); while at least one is
//    attached every step is timed (steady-clock, nanoseconds) and the
//    resulting `GenerationStats` — logical counters plus timing — is
//    pushed to each sink after the step completes.  With no sink attached
//    the engine performs no clock reads at all, so the hot path stays
//    measurement-free.
//  * `Trace` — the standard sink: records every step (thread-safe, so one
//    Trace can serve a Runner batch whose queries run on pool lanes) and
//    exports
//      - Chrome trace_event JSON (`write_chrome_trace`) that loads in
//        chrome://tracing and Perfetto: one "X" slice per step named by its
//        generation label (gen3:row-min.sub1, ...), plus one slice per
//        parallel-sweep lane on its own tid row;
//      - per-step metrics as CSV or JSON (`write_metrics_csv`,
//        `write_metrics_json`) for plotting timing series next to the
//        logical Table-1 counters;
//      - a run-level `summary()`: wall-clock per generation label, span,
//        and lane utilisation of the parallel sweeps.
//
// Timing fields vary run to run; the logical counters stay bit-identical
// across the sequential/spawn/pool backends (tests/metrics_test.cpp pins
// both properties).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "gca/instrumentation.hpp"

namespace gcalib::gca {

/// Per-step metrics consumer.  Implementations attached to an engine via
/// `Engine::add_sink` receive every completed step's `GenerationStats`
/// (with timing filled in).  A sink shared across parallel Runner queries
/// must be thread-safe; `Trace` is.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void on_step(const GenerationStats& stats) = 0;
};

/// Aggregate of all steps sharing one generation label.
struct LabelSummary {
  std::string label;
  std::size_t steps = 0;
  std::uint64_t total_ns = 0;   ///< summed step wall-clock
  std::uint64_t max_ns = 0;     ///< slowest step
  std::size_t active_cells = 0; ///< summed logical active-cell count
  std::size_t total_reads = 0;  ///< summed logical read count
};

/// Run-level rollup of a trace.
struct TraceSummary {
  std::size_t steps = 0;
  std::uint64_t wall_ns = 0;  ///< sum of per-step durations
  std::uint64_t span_ns = 0;  ///< last step end - first step start
  /// Busy fraction of the parallel sweeps: sum of lane busy time over
  /// (step duration x lane count), across steps that ran parallel lanes.
  /// 1.0 when every step swept sequentially (the single lane is never idle).
  double lane_utilisation = 1.0;
  std::size_t parallel_steps = 0;  ///< steps that recorded lane timings
  std::vector<LabelSummary> by_label;  ///< first-appearance order
};

/// The standard metrics sink: records every step for later export.
class Trace : public MetricsSink {
 public:
  /// Thread-safe append (Runner batches push from several pool lanes).
  void on_step(const GenerationStats& stats) override;

  /// Recorded steps, in arrival order.  Not synchronised against concurrent
  /// `on_step` calls — read it after the run, as the exporters do.
  [[nodiscard]] const std::vector<GenerationStats>& steps() const {
    return steps_;
  }
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Chrome trace_event JSON (catapult "JSON Object Format").  Timestamps
  /// are microseconds relative to the first recorded step.  Step slices go
  /// to tid 0; lane slices of parallel sweeps go to tid (lane + 1).
  void write_chrome_trace(std::ostream& os) const;

  /// One CSV row per step: timing next to the logical Table-1 counters.
  void write_metrics_csv(std::ostream& os) const;

  /// JSON: {"steps": [...], "summary": {...}} with per-lane detail.
  void write_metrics_json(std::ostream& os) const;

  [[nodiscard]] TraceSummary summary() const;

 private:
  mutable std::mutex mutex_;
  std::vector<GenerationStats> steps_;
};

/// Human-readable multi-line rendering of a summary (CLI `--trace-out` /
/// `--metrics-out` print this after the run).
[[nodiscard]] std::string format_summary(const TraceSummary& summary);

/// Writes the Chrome trace JSON to `path`; throws std::runtime_error when
/// the file cannot be written.
void write_trace_file(const Trace& trace, const std::string& path);

/// Writes per-step metrics to `path` — JSON when the name ends in ".json",
/// CSV otherwise; throws std::runtime_error when the file cannot be written.
void write_metrics_file(const Trace& trace, const std::string& path);

// --- service counters (gcad, DESIGN.md §11) -------------------------------

/// Point-in-time copy of `ServiceCounters` — plain integers for exporters,
/// tests and the gcad `stats` op.
struct ServiceCountersSnapshot {
  std::uint64_t accepted = 0;            ///< admitted into the intake queue
  std::uint64_t rejected_queue_full = 0; ///< shed on arrival: no queue space
  std::uint64_t rejected_deadline = 0;   ///< shed on arrival: wait > deadline
  std::uint64_t rejected_draining = 0;   ///< refused while draining
  std::uint64_t shed_overload = 0;       ///< accepted then evicted (replied!)
  std::uint64_t completed_ok = 0;        ///< terminal OK replies
  std::uint64_t expired = 0;             ///< terminal DEADLINE_EXCEEDED
  std::uint64_t failed = 0;              ///< other terminal errors
  std::uint64_t recovered = 0;           ///< OK after >= 1 retry
  std::uint64_t batches = 0;             ///< solve_batch dispatches
  std::uint64_t drained = 0;             ///< queries finished during drain
  std::uint64_t restored = 0;            ///< re-enqueued from the journal
  std::uint64_t journal_writes = 0;      ///< journal rewrites performed
  std::uint64_t overload_transitions = 0;///< escalation-ladder level changes
  std::uint64_t overload_level = 0;      ///< current ladder level (0 = normal)

  /// Terminal replies owed = terminal replies delivered?  The zero-loss
  /// bookkeeping identity the soak test audits.
  [[nodiscard]] std::uint64_t terminal() const {
    return completed_ok + expired + failed + shed_overload;
  }
};

/// Monotonic, thread-safe counters of the gcad service loop: admission,
/// shedding, batch dispatch, drain and restart.  Every transition of the
/// overload escalation ladder bumps `overload_transitions`, so overload
/// behaviour is observable in production, not only in tests.  Relaxed
/// atomics: each counter is an independent statistic, no ordering needed.
struct ServiceCounters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_deadline{0};
  std::atomic<std::uint64_t> rejected_draining{0};
  std::atomic<std::uint64_t> shed_overload{0};
  std::atomic<std::uint64_t> completed_ok{0};
  std::atomic<std::uint64_t> expired{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> recovered{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> restored{0};
  std::atomic<std::uint64_t> journal_writes{0};
  std::atomic<std::uint64_t> overload_transitions{0};
  std::atomic<std::uint64_t> overload_level{0};

  [[nodiscard]] ServiceCountersSnapshot snapshot() const;
};

/// One-line JSON object of a snapshot (the gcad `stats` reply payload).
[[nodiscard]] std::string service_counters_json(
    const ServiceCountersSnapshot& counters);

/// Human-readable multi-line rendering (gcad prints this at exit).
[[nodiscard]] std::string format_service_counters(
    const ServiceCountersSnapshot& counters);

}  // namespace gcalib::gca
