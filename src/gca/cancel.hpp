// Cooperative cancellation and deadlines for engine sweeps.
//
// A hung or pathological query must not wedge the service loop, so every
// sweep, on one thread or on the pool, polls a stop signal at chunk
// boundaries: a few thousand cells of work at most elapse between polls,
// and a tripped signal aborts the step *before* the double-buffer commit —
// the field keeps the previous generation, so the machine stays in a
// consistent state after the unwind.
//
// Two independent signals compose:
//  * a `CancelToken` — an external kill switch the caller flips from any
//    thread (`request_cancel`); the engine only ever reads it;
//  * a deadline — an absolute steady-clock instant configured per run
//    (RunOptions::deadline_ms / Engine::set_deadline_ns).
//
// Both are strictly pay-for-use: an engine with neither installed performs
// two scalar compares per step and nothing per cell, which is what keeps
// the perf_smoke gate honest (DESIGN.md §10).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace gcalib::gca {

/// Thrown by a sweep when its CancelToken was tripped.  Deliberately not a
/// ContractViolation: cancellation is a requested outcome, not corruption,
/// so the fault-recovery ladder never tries to roll it back.
class Cancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by a sweep when the run's deadline expired.  Same taxonomy
/// position as `Cancelled`.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Shared kill switch: the owner flips it, sweeps poll it.  Reads are
/// relaxed atomic loads — safe from every lane of a parallel sweep.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cooperative cancellation (idempotent; any thread).
  void request_cancel() { cancelled_.store(true, std::memory_order_release); }

  [[nodiscard]] bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Re-arms the token for another run.
  void reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Steady-clock "now" in nanoseconds — the time base of engine deadlines.
[[nodiscard]] inline std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Absolute steady-clock deadline `ms` milliseconds from now (for
/// Engine::set_deadline_ns; 0 never results — a zero budget is clamped to
/// one nanosecond past now, i.e. "already expired at the first poll").
[[nodiscard]] inline std::int64_t steady_deadline_ns(std::int64_t ms) {
  const std::int64_t budget = ms * 1'000'000;
  return steady_now_ns() + (budget > 0 ? budget : 1);
}

}  // namespace gcalib::gca
