// Persistent worker pool for the per-generation cell sweep.
//
// The paper's generation loop executes 12·ceil(lg n) + O(lg² n) engine
// steps per run; the legacy parallel backend paid thread creation and join
// on every one of them.  This pool creates its workers once and dispatches
// each generation through an epoch handshake:
//
//  * the caller publishes a task and bumps an epoch counter under a mutex,
//    then executes lane 0 itself (so a width-t dispatch needs only t - 1
//    worker wakeups and the calling thread is never idle);
//  * each worker wakes on the epoch change, runs its lane if the dispatch
//    is wide enough to include it, and decrements a pending counter;
//  * the caller returns when the counter reaches zero.  Exceptions thrown
//    by lanes are captured per-lane and the first one is rethrown on the
//    calling thread.
//
// Steady state: zero thread creation, zero allocation (the task is passed
// by reference), two mutex acquisitions plus condition-variable signalling
// per step.
//
// `shared(width)` hands out one process-wide pool per width so every
// engine, the Runner, the GCAL interpreter and the fault-recovery
// re-executions with the same sweep width reuse a single worker set
// instead of multiplying idle threads.  The registry holds weak
// references: when the last user releases a pool its threads shut down.
//
// Re-entrancy: `run` called from inside a pool lane (an engine stepping
// inside a Runner batch job, for example) executes all lanes inline on the
// calling thread instead of dead-locking on its own workers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gcalib::gca {

/// Non-owning reference to a callable `void(unsigned lane)`.  The referee
/// must outlive the dispatch (the caller blocks until all lanes return, so
/// a stack lambda is fine).  Unlike std::function this never allocates,
/// which keeps the steady-state step allocation-free.
class TaskRef {
 public:
  template <typename F>
  TaskRef(F& callable)  // NOLINT(google-explicit-constructor)
      : context_(&callable), invoke_([](void* context, unsigned lane) {
          (*static_cast<F*>(context))(lane);
        }) {}

  void operator()(unsigned lane) const { invoke_(context_, lane); }

 private:
  void* context_;
  void (*invoke_)(void*, unsigned);
};

class ThreadPool {
 public:
  /// A pool able to run dispatches up to `width` lanes; spawns `width - 1`
  /// worker threads (lane 0 always runs on the dispatching thread).
  explicit ThreadPool(unsigned width);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum dispatch width.
  [[nodiscard]] unsigned width() const { return width_; }

  /// Runs `task(lane)` for every lane in [0, lanes) concurrently and
  /// returns when all lanes finished; `lanes` must be <= `width()`.
  /// Concurrent `run` calls from different threads serialise; a call from
  /// inside a lane of any pool runs all lanes inline.
  void run(unsigned lanes, TaskRef task);

  /// The process-wide shared pool of the given width (created on first
  /// use, destroyed when the last shared_ptr drops).
  [[nodiscard]] static std::shared_ptr<ThreadPool> shared(unsigned width);

 private:
  void worker_loop(unsigned lane);

  const unsigned width_;
  std::mutex mutex_;
  std::condition_variable dispatch_cv_;  ///< workers wait for a new epoch
  std::condition_variable done_cv_;      ///< caller waits for pending == 0
  std::uint64_t epoch_ = 0;
  unsigned active_lanes_ = 0;  ///< lanes of the current dispatch
  unsigned pending_ = 0;       ///< workers still running the current epoch
  const TaskRef* task_ = nullptr;  ///< borrowed for one epoch
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< one slot per lane
  std::mutex dispatch_mutex_;  ///< serialises concurrent run() callers
  std::vector<std::thread> workers_;
};

}  // namespace gcalib::gca
