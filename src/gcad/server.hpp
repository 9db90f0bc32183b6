// gcad server loop: always-on connected components with a robustness spine.
//
// The daemon wraps `core::Runner` behind the line-delimited-JSON protocol
// (gcad/protocol.hpp) with four interlocking robustness mechanisms:
//
//  1. admission control (gcad/admission.hpp) — bounded intake, deadline-
//     aware shedding against the rolling latency model, weighted
//     round-robin fairness across clients;
//  2. dynamic micro-batching — the worker drains the queue into
//     `Runner::solve_batch` calls sized by queue depth (deeper queue ->
//     bigger batch, up to `max_batch`), so PR 5's per-query fault
//     isolation carries straight over to the service path: one corrupt or
//     expired query diagnoses itself, its batch siblings are unaffected;
//  3. graceful drain and crash restart — a stop request (SIGTERM via
//     `request_stop`, the `drain`/`shutdown` ops, or input EOF) stops
//     intake and finishes queued work; accepted-but-unfinished queries
//     live in the CRC-guarded journal (gcad/journal.hpp), which a
//     restarted daemon replays before reading new input, so `kill -9`
//     loses nothing that was ever acknowledged as accepted;
//  4. overload shedding — the escalation ladder sheds lowest-priority
//     work first (admission); every level transition bumps the service
//     counters and is announced on the reply stream.
//
// Every query runs on the CSR engine (DESIGN.md §12); the daemon does not
// link the paper's `HirschbergGca` machine.
//
// Threading: the caller's thread runs intake (`serve` reads lines); one
// worker thread dispatches batches; `Runner` fans each batch across the
// process-wide shared pool.  Replies from both threads serialise through
// one mutex-protected writer, one line per reply.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "gca/cancel.hpp"
#include "gca/metrics.hpp"
#include "gcad/admission.hpp"
#include "gcad/journal.hpp"
#include "gcad/latency.hpp"
#include "gcad/protocol.hpp"

namespace gcalib::gcad {

struct ServerOptions {
  unsigned threads = 1;  ///< solve lanes (Runner pool width)
  gca::ExecutionPolicy policy = gca::ExecutionPolicy::kPool;
  AdmissionConfig admission;  ///< `workers` is overridden with `threads`
  std::string journal_path;   ///< empty = no durability (accepted != durable)
  std::size_t max_batch = 16; ///< micro-batch ceiling
  unsigned retries = 1;       ///< normal-tier retries for corrupt queries
  std::int64_t retry_backoff_ms = 0;
  /// Fault injection for soak runs: expected faults per query (Poisson
  /// over the run schedule); 0 = off.  Injected runs self-check, so
  /// corruption is detected and retried — or reported, never mislabelled.
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 1;
  /// Durable per-query checkpoints (DESIGN.md §15): each query writes its
  /// GSKP artifact under `<checkpoint_dir>/q<id>`, so a SIGKILL
  /// mid-solve resumes the interrupted query mid-lattice on replay instead
  /// of from scratch.  Per-query subdirectories keep batch siblings from
  /// racing on one artifact file.  Empty = no durable solver state.
  std::string checkpoint_dir;
  /// Budget for the drain phase; work still queued when it expires stays
  /// in the journal for the next incarnation (checkpoint-not-finish).
  std::int64_t drain_timeout_ms = 30'000;
  /// Per-step metrics sink for every batch (non-owning; nullptr = none).
  gca::MetricsSink* sink = nullptr;
  bool announce_overload = true;  ///< emit {"event":"overload",...} lines
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The blocking serve loop: replays the journal, then reads request
  /// lines from `in` until EOF, a shutdown op, or `request_stop`, then
  /// drains and returns 0 (clean) or 1 (drain timeout left journaled
  /// work behind).  Replies go to `out`, one JSON object per line,
  /// flushed per line.
  int serve(std::istream& in, std::ostream& out);

  /// Stop intake and drain (SIGTERM path).  Callable from any thread;
  /// the intake loop notices at the next line boundary (install the
  /// signal handler without SA_RESTART so a blocking read returns EINTR).
  void request_stop() { stop_.store(true, std::memory_order_release); }

  [[nodiscard]] const gca::ServiceCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] const LatencyModel& latency_model() const { return model_; }

 private:
  /// Per-dispatch context the `configure_query` hook reads from the pool
  /// lanes (set by the single worker thread before each solve_batch).
  struct BatchContext {
    std::vector<std::int64_t> deadlines_ms;  ///< remaining budget per query
    std::vector<std::uint64_t> ids;          ///< query ids (checkpoint dirs)
    std::vector<std::uint32_t> sizes;        ///< node counts (fault plans)
    std::vector<std::uint64_t> fault_seeds;  ///< per-query injection seeds
    /// Attempt counter per query: transient faults strike the first
    /// attempt only, so a retry re-executes clean and recovers.
    std::unique_ptr<std::atomic<unsigned>[]> attempts;
  };

  /// Returns false when the line requested shutdown (ends the serve loop).
  bool handle_line(const std::string& line, bool oversized);
  void handle_solve(Request&& request);
  void worker_loop();
  void dispatch_batch(std::vector<PendingQuery> batch);
  void emit(const std::string& line);
  void configure_query(std::size_t index, core::RunOptions& run) const;

  /// Journal mutations — all under `queue_mutex_`.
  void journal_add_locked(const PendingQuery& query);
  void journal_remove_locked(const std::vector<std::uint64_t>& ids);
  void journal_rewrite_locked();
  void replay_journal();

  void update_overload_locked();

  ServerOptions options_;
  gca::ServiceCounters counters_;
  LatencyModel model_;
  gca::CancelToken hard_stop_;  ///< trips in-flight sweeps on drain timeout

  std::unique_ptr<core::Runner> runner_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  AdmissionController admission_;
  /// Accepted-but-unfinished queries as journaled (original deadline and
  /// admission instant kept to recompute the remaining budget on rewrite).
  struct LiveEntry {
    JournalEntry entry;
    std::chrono::steady_clock::time_point admitted_at;
  };
  std::vector<LiveEntry> journaled_;
  OverloadLevel last_level_ = OverloadLevel::kNormal;

  std::mutex out_mutex_;
  std::ostream* out_ = nullptr;

  std::atomic<bool> stop_{false};       ///< stop intake, then drain
  std::atomic<bool> hard_quit_{false};  ///< drain timeout: abandon the queue
  bool draining_ = false;               ///< under queue_mutex_
  bool worker_exit_ = false;            ///< under queue_mutex_
  bool batch_in_flight_ = false;        ///< under queue_mutex_
  /// Worker publishes (release) before solve_batch; pool lanes read
  /// (acquire) from `configure_query`.
  std::atomic<const BatchContext*> current_batch_{nullptr};
};

}  // namespace gcalib::gcad
