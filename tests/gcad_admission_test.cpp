// Admission control: deadline-aware shedding, the overload escalation
// ladder, bounded-queue eviction, and weighted round-robin fairness.
#include "gcad/admission.hpp"

#include <map>
#include <string>
#include <vector>

#include "gcad/latency.hpp"
#include "gcad/protocol.hpp"
#include "graph/generators.hpp"
#include "gtest/gtest.h"

namespace gcalib::gcad {
namespace {

PendingQuery make_query(std::uint64_t id, int priority = 1,
                        const std::string& client = "",
                        std::int64_t deadline_ms = 0) {
  PendingQuery query;
  query.id = id;
  query.graph = graph::path(16);
  query.deadline_ms = deadline_ms;
  query.admitted_at = std::chrono::steady_clock::now();
  query.priority = priority;
  query.client = client;
  return query;
}

TEST(GcadAdmission, AdmitsWithinCapacity) {
  LatencyModel model;
  AdmissionController admission({.queue_capacity = 4}, &model);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const AdmissionVerdict verdict = admission.admit(make_query(id), false);
    EXPECT_TRUE(verdict.status.ok()) << id;
    EXPECT_TRUE(verdict.evicted.empty());
  }
  EXPECT_EQ(admission.depth(), 4u);
}

TEST(GcadAdmission, DrainingRefusesEverythingAsUnavailable) {
  LatencyModel model;
  AdmissionController admission({}, &model);
  const AdmissionVerdict verdict =
      admission.admit(make_query(1, kMaxPriority), /*draining=*/true);
  EXPECT_EQ(verdict.status.code, StatusCode::kUnavailable);
  EXPECT_EQ(admission.depth(), 0u);
}

TEST(GcadAdmission, ShedsDeadlineInfeasibleArrivalsUpFront) {
  LatencyModel model;
  // Teach the model that an n=16 solve takes ~80 ms.
  for (int i = 0; i < 8; ++i) model.record(16, 15, 80'000'000);
  AdmissionController admission({.queue_capacity = 64, .workers = 1}, &model);
  // Feasible: generous deadline.
  EXPECT_TRUE(admission.admit(make_query(1, 1, "", 10'000), false).status.ok());
  // Infeasible: the queue wait alone (one 80 ms query ahead) plus its own
  // 80 ms solve cannot fit in 50 ms.
  const AdmissionVerdict verdict =
      admission.admit(make_query(2, 1, "", 50), false);
  EXPECT_EQ(verdict.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(verdict.status.message.find("shed at admission"),
            std::string::npos);
  EXPECT_EQ(admission.depth(), 1u);
}

TEST(GcadAdmission, FullQueueEvictsNewestLowestPriorityBelowArrival) {
  LatencyModel model;
  // A full 3-slot queue is at critical fill, where only kMaxPriority
  // arrivals pass the ladder gate — so eviction is exercised by a
  // top-priority arrival displacing the newest priority-0 entry.
  AdmissionController admission({.queue_capacity = 3}, &model);
  ASSERT_TRUE(admission.admit(make_query(1, 1), false).status.ok());
  ASSERT_TRUE(admission.admit(make_query(2, 0), false).status.ok());
  ASSERT_TRUE(admission.admit(make_query(3, 0), false).status.ok());
  AdmissionVerdict verdict =
      admission.admit(make_query(4, kMaxPriority), false);
  EXPECT_TRUE(verdict.status.ok());
  ASSERT_EQ(verdict.evicted.size(), 1u);
  EXPECT_EQ(verdict.evicted[0].id, 3u);
  EXPECT_EQ(admission.depth(), 3u);
}

TEST(GcadAdmission, FullQueueWithNoLowerPriorityVictimShedsTheArrival) {
  LatencyModel model;
  AdmissionController admission({.queue_capacity = 2}, &model);
  ASSERT_TRUE(
      admission.admit(make_query(1, kMaxPriority), false).status.ok());
  ASSERT_TRUE(
      admission.admit(make_query(2, kMaxPriority), false).status.ok());
  // Top priority passes the critical gate, but the queue holds nothing of
  // lower priority to shed — the arrival itself is refused.
  const AdmissionVerdict verdict =
      admission.admit(make_query(3, kMaxPriority), false);
  EXPECT_EQ(verdict.status.code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(verdict.evicted.empty());
  EXPECT_EQ(admission.depth(), 2u);
}

TEST(GcadAdmission, LadderLevelsTrackQueueFill) {
  LatencyModel model;
  AdmissionController admission({.queue_capacity = 10}, &model);
  EXPECT_EQ(admission.level(), OverloadLevel::kNormal);
  std::uint64_t id = 0;
  while (admission.depth() < 5) {
    ASSERT_TRUE(admission.admit(make_query(++id), false).status.ok());
  }
  EXPECT_EQ(admission.level(), OverloadLevel::kElevated);
  while (admission.depth() < 8) {
    ASSERT_TRUE(admission.admit(make_query(++id), false).status.ok());
  }
  EXPECT_EQ(admission.level(), OverloadLevel::kSevere);
  ASSERT_TRUE(
      admission.admit(make_query(++id, kMaxPriority), false).status.ok());
  EXPECT_EQ(admission.level(), OverloadLevel::kCritical);
}

TEST(GcadAdmission, CriticalLevelAdmitsOnlyTopPriority) {
  LatencyModel model;
  AdmissionController admission({.queue_capacity = 10}, &model);
  std::uint64_t id = 0;
  while (admission.depth() < 9) {
    ASSERT_TRUE(admission.admit(make_query(++id), false).status.ok());
  }
  ASSERT_EQ(admission.level(), OverloadLevel::kCritical);
  EXPECT_EQ(admission.admit(make_query(100, 2), false).status.code,
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(
      admission.admit(make_query(101, kMaxPriority), false).status.ok());
}

TEST(GcadAdmission, DequeueIsWeightedRoundRobinAcrossClients) {
  LatencyModel model;
  AdmissionController admission({.queue_capacity = 64}, &model);
  // One flooding client (20 queries) vs. two modest ones (2 each): WRR must
  // interleave — the first six dequeued queries cannot all be the flooder's.
  std::uint64_t id = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        admission.admit(make_query(++id, 1, "flood"), false).status.ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(admission.admit(make_query(++id, 1, "a"), false).status.ok());
    ASSERT_TRUE(admission.admit(make_query(++id, 1, "b"), false).status.ok());
  }
  const std::vector<PendingQuery> batch = admission.dequeue_batch(6);
  ASSERT_EQ(batch.size(), 6u);
  std::map<std::string, int> served;
  for (const PendingQuery& query : batch) ++served[query.client];
  EXPECT_GE(served["a"], 1);
  EXPECT_GE(served["b"], 1);
  EXPECT_LT(served["flood"], 6);
}

TEST(GcadAdmission, HigherPriorityClientsGetBiggerTurns) {
  LatencyModel model;
  AdmissionController admission({.queue_capacity = 64}, &model);
  std::uint64_t id = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(admission.admit(make_query(++id, 3, "hi"), false).status.ok());
    ASSERT_TRUE(admission.admit(make_query(++id, 0, "lo"), false).status.ok());
  }
  // One full rotation: "hi" may take up to 4 (priority 3 + 1), "lo" only 1.
  const std::vector<PendingQuery> batch = admission.dequeue_batch(5);
  ASSERT_EQ(batch.size(), 5u);
  std::map<std::string, int> served;
  for (const PendingQuery& query : batch) ++served[query.client];
  EXPECT_EQ(served["hi"], 4);
  EXPECT_EQ(served["lo"], 1);
}

TEST(GcadAdmission, DequeueDrainsEverythingEventually) {
  LatencyModel model;
  AdmissionController admission({.queue_capacity = 64}, &model);
  for (std::uint64_t id = 1; id <= 30; ++id) {
    ASSERT_TRUE(admission
                    .admit(make_query(id, static_cast<int>(id % 4),
                                      std::string("c").append(
                                          std::to_string(id % 5))),
                           false)
                    .status.ok());
  }
  std::size_t total = 0;
  while (!admission.empty()) {
    const std::vector<PendingQuery> batch = admission.dequeue_batch(7);
    ASSERT_FALSE(batch.empty());
    total += batch.size();
  }
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(admission.backlog_wait_ms(), 0);
}

TEST(GcadAdmission, BacklogWaitScalesWithModelAndWorkers) {
  LatencyModel model;
  for (int i = 0; i < 8; ++i) model.record(16, 15, 40'000'000);  // 40 ms each
  AdmissionController one({.queue_capacity = 64, .workers = 1}, &model);
  AdmissionController four({.queue_capacity = 64, .workers = 4}, &model);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(one.admit(make_query(id), false).status.ok());
    ASSERT_TRUE(four.admit(make_query(id), false).status.ok());
  }
  EXPECT_GT(one.backlog_wait_ms(), 100);  // ~160 ms
  EXPECT_LT(four.backlog_wait_ms(), one.backlog_wait_ms());
  // In-flight work counts toward the estimate.
  const std::int64_t before = one.backlog_wait_ms();
  one.set_in_flight_ns(80'000'000);
  EXPECT_GT(one.backlog_wait_ms(), before);
}

TEST(GcadLatencyModel, ColdEstimateGrowsWithSizeAndLearnsFromSamples) {
  LatencyModel model;
  EXPECT_GT(model.estimate_ns(64, 63), model.estimate_ns(8, 7));
  EXPECT_EQ(model.samples(), 0u);
  for (int i = 0; i < 16; ++i) model.record(32, 31, 5'000'000);
  EXPECT_EQ(model.samples(), 16u);
  const std::int64_t learned = model.estimate_ns(32, 31);
  EXPECT_GT(learned, 2'000'000);
  EXPECT_LT(learned, 10'000'000);
}

TEST(GcadLatencyModel, SparseWeightScalesWithEdgesNotNodesSquared) {
  // CSR work is linear in n + 2m, far below the n^2 cells the paper's field
  // would sweep for the same sparse input.
  const double csr_sparse_input = LatencyModel::weight(4096, 4096);
  EXPECT_LT(csr_sparse_input * 100.0, 4096.0 * 4096.0);
  // And the weight does grow with m.
  EXPECT_GT(LatencyModel::weight(4096, 40960), csr_sparse_input);
}

TEST(GcadLatencyModel, SparseCalibrationGeneralisesAcrossSizes) {
  LatencyModel model;
  // Observations at one size calibrate cold estimates at another via the
  // ns-per-work EWMA.
  for (int i = 0; i < 8; ++i) model.record(256, 1024, 1'000'000);
  const std::int64_t small = model.estimate_ns(256, 1024);
  const std::int64_t big = model.estimate_ns(65536, 262144);
  EXPECT_GT(big, small);  // scaled by the larger work weight, not cold
  EXPECT_LT(big, small * 1000);
}

}  // namespace
}  // namespace gcalib::gcad
