// Admission control: the bounded intake queue of the gcad service loop.
//
// The robust posture under load is to *refuse work early* rather than
// accept everything and let deadlines die quietly in a queue.  Admission
// applies three rules, in order, to every arriving solve:
//
//  1. deadline-aware shedding — if the estimated queue wait plus the
//     estimated solve time (LatencyModel) already exceeds the client's
//     deadline, the query is rejected on arrival with kDeadlineExceeded:
//     it would expire before completing, so running it only burns capacity
//     that deadline-feasible queries need;
//  2. the overload escalation ladder — queue fill drives a level
//     (normal -> elevated -> severe -> critical); at critical, only
//     top-priority work is admitted (kResourceExhausted otherwise);
//  3. bounded queue with priority eviction — when the queue is full, the
//     newest strictly-lower-priority entry is evicted to make room (the
//     eviction is *returned* to the caller, which must reply to the evicted
//     client — an accepted query is never dropped silently); with no lower
//     priority victim available, the arrival itself is shed.
//
// Dequeue side: weighted round-robin across clients — each turn a client
// releases up to (head priority + 1) queries — so one flooding client
// cannot starve the others, and higher-priority traffic drains faster
// without hard starvation of best-effort work.
//
// The controller is deliberately *not* internally synchronised: the server
// serialises access under its queue mutex, and the unit tests drive it
// deterministically.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "gcad/latency.hpp"
#include "graph/graph.hpp"

namespace gcalib::gcad {

/// One admitted-but-not-yet-solved query.
struct PendingQuery {
  std::uint64_t id = 0;
  graph::Graph graph;
  std::int64_t deadline_ms = 0;  ///< remaining budget at admission (0 = none)
  std::chrono::steady_clock::time_point admitted_at;
  int priority = 1;
  std::string client;
  std::int64_t est_ns = 0;  ///< model estimate at admission (cost accounting)
  bool restored = false;    ///< re-admitted from the journal after a restart
};

struct AdmissionConfig {
  std::size_t queue_capacity = 256;  ///< bounded intake
  unsigned workers = 1;  ///< parallel solve lanes the wait estimate divides by
  /// Escalation-ladder thresholds as queue-fill fractions.
  double elevated_fill = 0.50;
  double severe_fill = 0.75;
  double critical_fill = 0.90;
};

/// The escalation ladder (DESIGN.md §11).  Levels only govern *behaviour*
/// (admission shedding); they carry no queue state themselves.  Every
/// transition is announced on the reply stream.
enum class OverloadLevel : unsigned {
  kNormal = 0,    ///< full service
  kElevated = 1,  ///< watch state: transitions logged, no behaviour change
  kSevere = 2,    ///< watch state nearer full: transitions logged only
  kCritical = 3,  ///< admit only top-priority work
};

[[nodiscard]] const char* to_string(OverloadLevel level);

/// Outcome of one admission decision.
struct AdmissionVerdict {
  Status status;  ///< OK = admitted; else the reject reason
  std::int64_t est_wait_ms = 0;  ///< estimated queue wait quoted to the client
  /// Lower-priority entries evicted to make room.  The caller owes each an
  /// explicit shed reply — this is the "never silently dropped" contract.
  std::vector<PendingQuery> evicted;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config, LatencyModel* model);

  /// Decides the fate of one arriving solve.  `draining` refuses all new
  /// work with kUnavailable (the drain path).  On OK the query is queued.
  [[nodiscard]] AdmissionVerdict admit(PendingQuery query, bool draining);

  /// Weighted-round-robin dequeue of up to `max` queries for one
  /// micro-batch.  Entries whose deadline already expired while queued are
  /// *included* — the server owes them a kDeadlineExceeded reply (cheap:
  /// they are detected at dispatch and never executed).
  [[nodiscard]] std::vector<PendingQuery> dequeue_batch(std::size_t max);

  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] bool empty() const { return depth_ == 0; }

  /// Estimated wall-clock to drain the current backlog plus the in-flight
  /// work, divided across the solve lanes.
  [[nodiscard]] std::int64_t backlog_wait_ms() const;

  /// Cost of the batch currently executing (the server sets this around
  /// each dispatch so admission sees in-flight work, not just the queue).
  void set_in_flight_ns(std::int64_t ns) { in_flight_ns_ = ns; }

  [[nodiscard]] OverloadLevel level() const;

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  struct ClientQueue {
    std::string name;
    std::deque<PendingQuery> entries;
  };

  [[nodiscard]] ClientQueue& client_queue(const std::string& name);
  /// Evicts the newest strictly-lower-priority entry than `priority`;
  /// returns true and appends it to `evicted` on success.
  bool evict_one_below(int priority, std::vector<PendingQuery>& evicted);

  AdmissionConfig config_;
  LatencyModel* model_;  ///< non-owning
  std::vector<ClientQueue> clients_;  ///< rotation order; empty queues pruned
  std::size_t rotation_ = 0;          ///< WRR cursor into `clients_`
  std::size_t depth_ = 0;
  std::int64_t backlog_ns_ = 0;    ///< summed est_ns of queued entries
  std::int64_t in_flight_ns_ = 0;  ///< cost of the executing batch
};

}  // namespace gcalib::gcad
