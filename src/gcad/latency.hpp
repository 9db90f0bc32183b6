// Rolling per-size latency model — the admission controller's crystal ball.
//
// Deadline-aware shedding needs an answer to "how long until a query
// admitted *now* actually runs, and how long will it take once it does?"
// before the query executes.  The model keeps an exponentially weighted
// moving average of observed per-query solve times in log2(n) buckets
// (queries of similar size cost similar work), plus a global calibration
// of nanoseconds-per-work-unit so sizes never seen before still get a sane
// estimate.
//
// Every query runs on the CSR engine (DESIGN.md §12), which does O(n + m)
// work per sweep for O(log n) sweeps, so the work weight of a query is
// (n + 2m) * (log2 n + 1).
//
// Thread-safe: the intake thread reads estimates while worker lanes feed
// observations back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace gcalib::gcad {

class LatencyModel {
 public:
  /// Records one observed isolated-solve wall time for an n-node, m-edge
  /// query.
  void record(std::uint32_t n, std::size_t m, std::int64_t elapsed_ns);

  /// Estimated solve time for an n-node, m-edge query: the bucket EWMA
  /// when that size class has history, otherwise the calibration scaled by
  /// the work weight, otherwise a conservative cold-start constant.
  [[nodiscard]] std::int64_t estimate_ns(std::uint32_t n,
                                         std::size_t m) const;

  /// Total observations recorded (tests, stats op).
  [[nodiscard]] std::uint64_t samples() const;

  /// Declares the solver-thread budget queries run with.  *Cold* estimates
  /// — before the model has observed anything — are divided by
  /// `effective_parallelism(threads)`.  The production engine has no such
  /// per-query speedup: the link pass runs each query on one lane
  /// (DESIGN.md §14), and the admission backlog already divides by the
  /// worker count.  So a cold estimate is optimistic by up to that factor,
  /// for the queries that arrive before the first sample only.  Warm
  /// estimates (bucket EWMAs and the ns-per-weight calibration) are learned
  /// from observed wall times and are not scaled.
  void set_solver_threads(unsigned threads);

  /// The lane-speedup model: 1 + (threads - 1) / 2, half-efficient
  /// scaling.  It was fitted to the multi-lane CAS-min engine the link pass
  /// replaced, and stays as it is because perfbench's admission replay
  /// calls it.
  [[nodiscard]] static double effective_parallelism(unsigned threads) {
    return threads <= 1 ? 1.0 : 1.0 + 0.5 * static_cast<double>(threads - 1);
  }

  /// Work weight of an n-node, m-edge query: (n + 2m) * (log2 n + 1) label
  /// reads.
  [[nodiscard]] static double weight(std::uint32_t n, std::size_t m);

 private:
  static constexpr double kAlpha = 0.2;  ///< EWMA smoothing factor
  /// Cold-start nanoseconds per work unit (no observation yet anywhere).
  /// Deliberately on the slow side: over-estimating sheds a little too
  /// eagerly, under-estimating admits work that then misses deadlines.
  static constexpr double kColdNsPerWeight = 30.0;
  static constexpr unsigned kBuckets = 16;  ///< log2 buckets up to n = 65535

  struct Bucket {
    double ewma_ns = 0.0;
    std::uint64_t samples = 0;
  };

  [[nodiscard]] static unsigned bucket_of(std::uint32_t n);

  mutable std::mutex mutex_;
  Bucket buckets_[kBuckets];
  double ns_per_weight_ = 0.0;  ///< calibration for unseen size classes
  std::uint64_t samples_ = 0;
  unsigned solver_threads_ = 1;
};

}  // namespace gcalib::gcad
