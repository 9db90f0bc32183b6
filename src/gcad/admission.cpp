#include "gcad/admission.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "gcad/protocol.hpp"

namespace gcalib::gcad {

const char* to_string(OverloadLevel level) {
  switch (level) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kElevated: return "elevated";
    case OverloadLevel::kSevere: return "severe";
    case OverloadLevel::kCritical: return "critical";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         LatencyModel* model)
    : config_(config), model_(model) {
  GCALIB_EXPECTS_MSG(config_.queue_capacity >= 1,
                     "admission: queue capacity must be >= 1");
  GCALIB_EXPECTS_MSG(config_.workers >= 1,
                     "admission: workers must be >= 1");
  GCALIB_EXPECTS_MSG(model_ != nullptr,
                     "admission: a latency model is required");
  GCALIB_EXPECTS_MSG(config_.elevated_fill <= config_.severe_fill &&
                         config_.severe_fill <= config_.critical_fill,
                     "admission: ladder thresholds must be non-decreasing");
}

OverloadLevel AdmissionController::level() const {
  const double fill = static_cast<double>(depth_) /
                      static_cast<double>(config_.queue_capacity);
  if (fill >= config_.critical_fill) return OverloadLevel::kCritical;
  if (fill >= config_.severe_fill) return OverloadLevel::kSevere;
  if (fill >= config_.elevated_fill) return OverloadLevel::kElevated;
  return OverloadLevel::kNormal;
}

std::int64_t AdmissionController::backlog_wait_ms() const {
  const std::int64_t total = backlog_ns_ + in_flight_ns_;
  const std::int64_t per_lane =
      total / static_cast<std::int64_t>(config_.workers);
  return per_lane / 1'000'000;
}

AdmissionController::ClientQueue& AdmissionController::client_queue(
    const std::string& name) {
  for (ClientQueue& client : clients_) {
    if (client.name == name) return client;
  }
  clients_.push_back(ClientQueue{name, {}});
  return clients_.back();
}

bool AdmissionController::evict_one_below(int priority,
                                          std::vector<PendingQuery>& evicted) {
  // Victim choice: the *newest* entry of the *lowest* priority band below
  // the arrival — newest because it has waited least (least sunk cost),
  // lowest band first because that is the ladder's shed order.
  ClientQueue* victim_client = nullptr;
  std::size_t victim_index = 0;
  int victim_priority = priority;
  for (ClientQueue& client : clients_) {
    for (std::size_t i = client.entries.size(); i-- > 0;) {
      const PendingQuery& entry = client.entries[i];
      if (entry.priority < victim_priority) {
        victim_client = &client;
        victim_index = i;
        victim_priority = entry.priority;
      }
    }
  }
  if (victim_client == nullptr) return false;
  auto it = victim_client->entries.begin() +
            static_cast<std::ptrdiff_t>(victim_index);
  backlog_ns_ -= it->est_ns;
  --depth_;
  evicted.push_back(std::move(*it));
  victim_client->entries.erase(it);
  return true;
}

AdmissionVerdict AdmissionController::admit(PendingQuery query,
                                            bool draining) {
  AdmissionVerdict verdict;
  if (draining) {
    verdict.status = Status::error(
        StatusCode::kUnavailable,
        "service is draining; no new work is accepted");
    return verdict;
  }

  query.est_ns = model_->estimate_ns(query.graph.node_count(),
                                     query.graph.edge_count());
  const std::int64_t est_wait_ms = backlog_wait_ms();
  const std::int64_t est_total_ms =
      est_wait_ms + query.est_ns / 1'000'000;
  verdict.est_wait_ms = est_wait_ms;

  // Rule 1: deadline-aware shedding — reject-on-arrival when the query
  // cannot plausibly finish inside its own budget.
  if (query.deadline_ms > 0 && est_total_ms > query.deadline_ms) {
    verdict.status = Status::error(
        StatusCode::kDeadlineExceeded,
        "estimated completion in " + std::to_string(est_total_ms) +
            " ms exceeds the " + std::to_string(query.deadline_ms) +
            " ms deadline; shed at admission");
    return verdict;
  }

  // Rule 2: the escalation ladder — critical overload admits only
  // top-priority work.
  if (level() == OverloadLevel::kCritical &&
      query.priority < kMaxPriority) {
    verdict.status = Status::error(
        StatusCode::kResourceExhausted,
        "critical overload (queue " + std::to_string(depth_) + "/" +
            std::to_string(config_.queue_capacity) +
            "); only priority " + std::to_string(kMaxPriority) +
            " is admitted");
    return verdict;
  }

  // Rule 3: bounded queue with priority eviction.
  if (depth_ >= config_.queue_capacity) {
    if (!evict_one_below(query.priority, verdict.evicted)) {
      verdict.status = Status::error(
          StatusCode::kResourceExhausted,
          "intake queue full (" + std::to_string(config_.queue_capacity) +
              ") with no lower-priority work to shed");
      return verdict;
    }
  }

  backlog_ns_ += query.est_ns;
  ++depth_;
  client_queue(query.client).entries.push_back(std::move(query));
  verdict.status = Status{};
  return verdict;
}

std::vector<PendingQuery> AdmissionController::dequeue_batch(
    std::size_t max) {
  std::vector<PendingQuery> batch;
  if (max == 0) return batch;
  while (batch.size() < max && depth_ > 0) {
    // Prune empty client queues; keep the rotation cursor stable.
    for (std::size_t i = 0; i < clients_.size();) {
      if (clients_[i].entries.empty()) {
        clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(i));
        if (rotation_ > i) --rotation_;
      } else {
        ++i;
      }
    }
    if (clients_.empty()) break;
    if (rotation_ >= clients_.size()) rotation_ = 0;
    ClientQueue& client = clients_[rotation_];
    // WRR: a client's turn releases up to (head priority + 1) queries, so
    // higher-priority streams drain faster without starving anyone.
    const std::size_t quota =
        static_cast<std::size_t>(client.entries.front().priority) + 1;
    for (std::size_t taken = 0;
         taken < quota && !client.entries.empty() && batch.size() < max;
         ++taken) {
      PendingQuery& head = client.entries.front();
      backlog_ns_ -= head.est_ns;
      --depth_;
      batch.push_back(std::move(head));
      client.entries.pop_front();
    }
    ++rotation_;
  }
  return batch;
}

}  // namespace gcalib::gcad
