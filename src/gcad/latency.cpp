#include "gcad/latency.hpp"

#include <algorithm>
#include <cmath>

namespace gcalib::gcad {

double LatencyModel::weight(std::uint32_t n, std::size_t m) {
  if (n == 0) return 1.0;
  const double logn = std::floor(std::log2(static_cast<double>(n))) + 1.0;
  // One hook sweep reads every arc (2m) and writes every vertex (n);
  // O(log n) hook/jump sweeps to the fixpoint.
  return (static_cast<double>(n) + 2.0 * static_cast<double>(m)) * logn;
}

unsigned LatencyModel::bucket_of(std::uint32_t n) {
  unsigned bucket = 0;
  while (n > 1 && bucket + 1 < kBuckets) {
    n >>= 1;
    ++bucket;
  }
  return bucket;
}

void LatencyModel::record(std::uint32_t n, std::size_t m,
                          std::int64_t elapsed_ns) {
  if (n == 0 || elapsed_ns < 0) return;
  const double observed = static_cast<double>(elapsed_ns);
  const double per_weight = observed / weight(n, m);
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = buckets_[bucket_of(n)];
  bucket.ewma_ns = bucket.samples == 0
                       ? observed
                       : (1.0 - kAlpha) * bucket.ewma_ns + kAlpha * observed;
  ++bucket.samples;
  ns_per_weight_ = samples_ == 0
                       ? per_weight
                       : (1.0 - kAlpha) * ns_per_weight_ + kAlpha * per_weight;
  ++samples_;
}

std::int64_t LatencyModel::estimate_ns(std::uint32_t n, std::size_t m) const {
  if (n == 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const Bucket& bucket = buckets_[bucket_of(n)];
  double estimate = 0.0;
  if (bucket.samples > 0) {
    estimate = bucket.ewma_ns;
  } else if (samples_ > 0) {
    estimate = ns_per_weight_ * weight(n, m);
  } else {
    // Cold: the calibration divided by the lane speedup of
    // set_solver_threads (latency.hpp), optimistic for the one-lane link
    // pass.  The warm branches above are learned from observed wall times.
    estimate = kColdNsPerWeight * weight(n, m) /
               effective_parallelism(solver_threads_);
  }
  return static_cast<std::int64_t>(std::max(estimate, 1.0));
}

void LatencyModel::set_solver_threads(unsigned threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  solver_threads_ = std::max(threads, 1u);
}

std::uint64_t LatencyModel::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

}  // namespace gcalib::gcad
