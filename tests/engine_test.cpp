#include "gca/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "common/assert.hpp"

namespace gcalib::gca {
namespace {

using IntEngine = Engine<int>;

std::vector<int> iota_states(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(Engine, InitialStatesVisible) {
  IntEngine engine(iota_states(4));
  EXPECT_EQ(engine.size(), 4u);
  EXPECT_EQ(engine.state(2), 2);
  EXPECT_EQ(engine.generation(), 0u);
}

TEST(Engine, SynchronousSemantics) {
  // Rotate left: every cell reads its right neighbour.  A synchronous
  // engine must produce a clean rotation, not a cascading copy.
  IntEngine engine(iota_states(4));
  engine.step([](std::size_t i, auto& read) -> std::optional<int> {
    return read((i + 1) % 4);
  });
  EXPECT_EQ(engine.states(), (std::vector<int>{1, 2, 3, 0}));
  EXPECT_EQ(engine.generation(), 1u);
}

TEST(Engine, InactiveCellsKeepState) {
  IntEngine engine(iota_states(4));
  engine.step([](std::size_t i, auto&) -> std::optional<int> {
    if (i % 2 == 0) return static_cast<int>(100 + i);
    return std::nullopt;
  });
  EXPECT_EQ(engine.states(), (std::vector<int>{100, 1, 102, 3}));
}

TEST(Engine, ActiveCountReflectsEngagedRules) {
  IntEngine engine(iota_states(5));
  const GenerationStats stats =
      engine.step([](std::size_t i, auto&) -> std::optional<int> {
        return i < 2 ? std::optional<int>(0) : std::nullopt;
      });
  EXPECT_EQ(stats.active_cells, 2u);
  EXPECT_EQ(stats.cell_count, 5u);
}

TEST(Engine, OneHandedEnforced) {
  IntEngine engine(iota_states(3), EngineOptions{}.with_hands(1));
  EXPECT_THROW(engine.step([](std::size_t, auto& read) -> std::optional<int> {
    (void)read(0);
    (void)read(1);
    return 0;
  }),
               ContractViolation);
}

TEST(Engine, TwoHandedAllowsTwoReads) {
  IntEngine engine(iota_states(3), EngineOptions{}.with_hands(2));
  EXPECT_NO_THROW(engine.step([](std::size_t, auto& read) -> std::optional<int> {
    return read(0) + read(1);
  }));
  EXPECT_EQ(engine.state(2), 1);
}

TEST(Engine, CongestionHistogram) {
  // All 4 cells read cell 0: congestion class {4 -> 1 cell}.
  IntEngine engine(iota_states(4));
  const GenerationStats stats =
      engine.step([](std::size_t, auto& read) -> std::optional<int> {
        return read(0);
      });
  EXPECT_EQ(stats.total_reads, 4u);
  EXPECT_EQ(stats.cells_read, 1u);
  EXPECT_EQ(stats.max_congestion, 4u);
  ASSERT_EQ(stats.congestion_classes.size(), 1u);
  EXPECT_EQ(stats.congestion_classes.at(4), 1u);
  EXPECT_EQ(stats.cells_unread(), 3u);
}

TEST(Engine, DistinctTargetsCongestionOne) {
  IntEngine engine(iota_states(4));
  const GenerationStats stats =
      engine.step([](std::size_t i, auto& read) -> std::optional<int> {
        return read((i + 1) % 4);
      });
  EXPECT_EQ(stats.cells_read, 4u);
  EXPECT_EQ(stats.max_congestion, 1u);
  EXPECT_EQ(stats.congestion_classes.at(1), 4u);
}

TEST(Engine, InstrumentationOffSkipsCounting) {
  IntEngine engine(iota_states(4),
                   EngineOptions{}.with_instrumentation(false));
  const GenerationStats stats =
      engine.step([](std::size_t, auto& read) -> std::optional<int> {
        return read(0);
      });
  EXPECT_EQ(stats.total_reads, 0u);
  EXPECT_TRUE(engine.history().empty());
  // States still update.
  EXPECT_EQ(engine.state(3), 0);
}

TEST(Engine, AccessEdgesRecorded) {
  IntEngine engine(iota_states(3), EngineOptions{}.with_record_access(true));
  engine.step([](std::size_t i, auto& read) -> std::optional<int> {
    return read((i + 1) % 3);
  });
  const std::vector<AccessEdge>& edges = engine.last_access();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (AccessEdge{0, 1}));
  EXPECT_EQ(edges[1], (AccessEdge{1, 2}));
  EXPECT_EQ(edges[2], (AccessEdge{2, 0}));
}

TEST(Engine, LastActiveMask) {
  IntEngine engine(iota_states(4));
  engine.step([](std::size_t i, auto&) -> std::optional<int> {
    return i == 2 ? std::optional<int>(9) : std::nullopt;
  });
  EXPECT_EQ(engine.last_active(), (std::vector<std::uint8_t>{0, 0, 1, 0}));
}

TEST(Engine, HistoryAccumulatesAndClears) {
  IntEngine engine(iota_states(2));
  engine.step([](std::size_t, auto&) -> std::optional<int> { return 1; }, "s1");
  engine.step([](std::size_t, auto&) -> std::optional<int> { return 2; }, "s2");
  ASSERT_EQ(engine.history().size(), 2u);
  EXPECT_EQ(engine.history()[0].label, "s1");
  EXPECT_EQ(engine.history()[1].generation, 1u);
  engine.clear_history();
  EXPECT_TRUE(engine.history().empty());
  EXPECT_EQ(engine.generation(), 2u);  // generation counter is not history
}

TEST(Engine, ReadOutOfRangeThrows) {
  IntEngine engine(iota_states(2));
  EXPECT_THROW(engine.step([](std::size_t, auto& read) -> std::optional<int> {
    return read(7);
  }),
               ContractViolation);
}

TEST(Engine, ParallelSweepMatchesSequential) {
  const std::size_t n = 1000;
  IntEngine seq(iota_states(n));
  IntEngine par(iota_states(n), EngineOptions{}.with_threads(4));
  const auto rule = [n](std::size_t i, auto& read) -> std::optional<int> {
    return read((i * 7 + 3) % n) + 1;
  };
  const GenerationStats s1 = seq.step(rule);
  const GenerationStats s2 = par.step(rule);
  EXPECT_EQ(seq.states(), par.states());
  EXPECT_EQ(s1.active_cells, s2.active_cells);
  EXPECT_EQ(s1.total_reads, s2.total_reads);
  EXPECT_EQ(s1.max_congestion, s2.max_congestion);
  EXPECT_EQ(s1.congestion_classes, s2.congestion_classes);
}

TEST(Engine, ParallelSweepMultipleGenerations) {
  const std::size_t n = 512;
  IntEngine engine(iota_states(n), EngineOptions{}.with_threads(8));
  for (int r = 0; r < 10; ++r) {
    engine.step([n](std::size_t i, auto& read) -> std::optional<int> {
      return read((i + 1) % n);
    });
  }
  // After 10 rotations, cell i holds the initial value of cell i+10.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(engine.state(i), static_cast<int>((i + 10) % n));
  }
}

TEST(Engine, PoolSweepBitIdenticalToSequential) {
  // The pool backend must reproduce the sequential sweep exactly — states
  // and the full instrumented history — for every width, including one
  // that does not divide the cell count.
  const std::size_t n = 997;
  const auto rule = [n](std::size_t i, auto& read) -> std::optional<int> {
    if (i % 3 == 0) return std::nullopt;  // inactive cells in the mix
    return read((i * 13 + 5) % n) + read((i * 7 + 1) % n);
  };
  IntEngine reference(iota_states(n), EngineOptions{}.with_hands(2));
  for (int r = 0; r < 5; ++r) reference.step(rule);

  for (unsigned threads : {2u, 4u, 7u}) {
    IntEngine pooled(iota_states(n),
                     EngineOptions{}.with_hands(2).with_threads(threads));
    for (int r = 0; r < 5; ++r) pooled.step(rule);
    EXPECT_EQ(pooled.states(), reference.states()) << "threads=" << threads;
    ASSERT_EQ(pooled.history().size(), reference.history().size());
    for (std::size_t s = 0; s < reference.history().size(); ++s) {
      const GenerationStats& a = reference.history()[s];
      const GenerationStats& b = pooled.history()[s];
      EXPECT_EQ(a.active_cells, b.active_cells);
      EXPECT_EQ(a.total_reads, b.total_reads);
      EXPECT_EQ(a.cells_read, b.cells_read);
      EXPECT_EQ(a.max_congestion, b.max_congestion);
      EXPECT_EQ(a.congestion_classes, b.congestion_classes);
    }
  }
}

TEST(Engine, PoolPropagatesRuleExceptions) {
  IntEngine engine(iota_states(256), EngineOptions{}.with_threads(4));
  EXPECT_THROW(engine.step([](std::size_t i, auto&) -> std::optional<int> {
    if (i == 200) throw std::runtime_error("boom");
    return 0;
  }),
               std::runtime_error);
  // The engine stays usable after the failed step.
  engine.step([](std::size_t, auto&) -> std::optional<int> { return 1; });
  EXPECT_EQ(engine.state(0), 1);
}

TEST(EngineOptions, ValidationRejectsBadCombinations) {
  EXPECT_THROW(EngineOptions{}.with_threads(0).validate(), ContractViolation);
  EXPECT_THROW(EngineOptions{}.with_hands(0).validate(), ContractViolation);
  // record_access with a parallel sweep is rejected...
  EXPECT_THROW(
      EngineOptions{}.with_threads(4).with_record_access(true).validate(),
      ContractViolation);
  EXPECT_THROW(
      EngineOptions{}.with_threads(2).with_record_access(true).validate(),
      ContractViolation);
  // ...but one thread is sequential.
  EXPECT_NO_THROW(EngineOptions{}.with_record_access(true).validate());
  // The width alone picks the pool: threads > 1 needs nothing else.
  EXPECT_NO_THROW(EngineOptions{}.with_threads(4).validate());
  EXPECT_TRUE(EngineOptions{}.with_threads(4).parallel());
  EXPECT_FALSE(EngineOptions{}.parallel());
  EXPECT_THROW(
      (IntEngine{iota_states(4), EngineOptions{}.with_threads(0)}),
      ContractViolation);
}

TEST(Engine, SetOptionsSwitchesBackendBetweenSteps) {
  IntEngine engine(iota_states(64));
  const auto rule = [](std::size_t i, auto& read) -> std::optional<int> {
    return read((i + 1) % 64);
  };
  engine.step(rule);
  engine.set_options(EngineOptions{}.with_threads(4));
  engine.step(rule);
  engine.set_options(EngineOptions{});
  engine.step(rule);
  // Three rotations of iota: cell i holds (i + 3) mod 64.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(engine.state(i), static_cast<int>((i + 3) % 64));
  }
}

TEST(Engine, RecordAccessRequiresSequentialSweep) {
  // The invalid combination is rejected when it is *formed* — by whichever
  // option change arrives second — never mid-run from inside step().
  IntEngine engine(iota_states(64));
  engine.set_options(EngineOptions{engine.options()}.with_threads(4));
  EXPECT_THROW(engine.set_options(
                   EngineOptions{engine.options()}.with_record_access(true)),
               ContractViolation);
  // The rejected change must not have modified the options.
  EXPECT_FALSE(engine.options().record_access);
  EXPECT_EQ(engine.options().threads, 4u);
  EXPECT_NO_THROW(engine.step(
      [](std::size_t, auto&) -> std::optional<int> { return 0; }));
}

TEST(Engine, ParallelThreadsRejectedAfterRecordAccess) {
  // Same combination formed in the other order.
  IntEngine engine(iota_states(64));
  engine.set_options(EngineOptions{engine.options()}.with_record_access(true));
  EXPECT_THROW(
      engine.set_options(EngineOptions{engine.options()}.with_threads(4)),
      ContractViolation);
  EXPECT_TRUE(engine.options().record_access);
  EXPECT_EQ(engine.options().threads, 1u);
  EXPECT_THROW(
      engine.set_options(
          EngineOptions{}.with_threads(2).with_record_access(true)),
      ContractViolation);
}

TEST(Engine, MutableStateForHostInitialisation) {
  IntEngine engine(iota_states(3));
  engine.mutable_state(1) = 99;
  EXPECT_EQ(engine.state(1), 99);
}

TEST(Engine, EmptyInitialStateRejected) {
  EXPECT_THROW(IntEngine(std::vector<int>{}), ContractViolation);
}

TEST(Engine, ZeroThreadsRejected) {
  IntEngine engine(iota_states(4));
  EXPECT_THROW(engine.set_options(EngineOptions{}.with_threads(0)),
               ContractViolation);
}

TEST(Engine, ObserversSeePostStepStates) {
  IntEngine engine(iota_states(4));
  std::size_t calls = 0;
  std::vector<int> observed;
  const std::size_t id = engine.add_observer(
      [&calls, &observed](const IntEngine& e, const GenerationStats& stats) {
        ++calls;
        observed = e.states();
        EXPECT_EQ(stats.generation + 1, e.generation());
      });
  EXPECT_EQ(engine.observer_count(), 1u);
  engine.step([](std::size_t i, auto& read) -> std::optional<int> {
    return read((i + 1) % 4);
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(observed, (std::vector<int>{1, 2, 3, 0}));

  engine.remove_observer(id);
  EXPECT_EQ(engine.observer_count(), 0u);
  engine.step([](std::size_t, auto&) -> std::optional<int> { return 0; });
  EXPECT_EQ(calls, 1u);  // detached observers stay silent
}

std::optional<int> rotate4(std::size_t i, IntEngine::Reader& read) {
  return read((i + 1) % 4);
}

TEST(Engine, ObserverRemovesItselfDuringCallback) {
  IntEngine engine(iota_states(4));
  std::size_t calls = 0;
  std::size_t id = 0;
  id = engine.add_observer([&](const IntEngine&, const GenerationStats&) {
    ++calls;
    engine.remove_observer(id);
  });
  engine.step(rotate4);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(engine.observer_count(), 0u);
  engine.step(rotate4);
  EXPECT_EQ(calls, 1u);  // removed during its own callback: never again
}

TEST(Engine, ObserverAddsObserverDuringCallback) {
  // Additions from inside a callback take effect on the NEXT step.
  IntEngine engine(iota_states(4));
  std::size_t outer_calls = 0;
  std::size_t inner_calls = 0;
  engine.add_observer([&](const IntEngine&, const GenerationStats&) {
    if (outer_calls++ == 0) {
      engine.add_observer(
          [&](const IntEngine&, const GenerationStats&) { ++inner_calls; });
    }
  });
  engine.step(rotate4);
  EXPECT_EQ(outer_calls, 1u);
  EXPECT_EQ(inner_calls, 0u);  // not called on the step that added it
  EXPECT_EQ(engine.observer_count(), 2u);
  engine.step(rotate4);
  EXPECT_EQ(outer_calls, 2u);
  EXPECT_EQ(inner_calls, 1u);
}

TEST(Engine, ObserverRemovesLaterObserverDuringCallback) {
  // Removals take effect immediately: an observer removed by an earlier
  // callback of the same step is not called for that step.
  IntEngine engine(iota_states(4));
  std::size_t second_calls = 0;
  std::size_t second_id = 0;
  engine.add_observer([&](const IntEngine&, const GenerationStats&) {
    engine.remove_observer(second_id);
  });
  second_id = engine.add_observer(
      [&](const IntEngine&, const GenerationStats&) { ++second_calls; });
  EXPECT_EQ(engine.observer_count(), 2u);
  engine.step(rotate4);
  EXPECT_EQ(second_calls, 0u);
  EXPECT_EQ(engine.observer_count(), 1u);
}

TEST(Engine, StepFromObserverCallbackRejected) {
  IntEngine engine(iota_states(4));
  bool threw = false;
  engine.add_observer([&](const IntEngine&, const GenerationStats&) {
    try {
      engine.step(rotate4);
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  engine.step(rotate4);
  EXPECT_TRUE(threw);
  // The rejected re-entrant step must not have corrupted the notify state:
  // the next step still reaches the observer.
  threw = false;
  engine.step(rotate4);
  EXPECT_TRUE(threw);
}

TEST(Engine, CellsUnreadClampsWhenReadsExceedCells) {
  // A hand-merged stats object (or a future counting bug) must not make
  // cells_unread wrap around to ~0ULL.
  GenerationStats stats;
  stats.cell_count = 4;
  stats.cells_read = 9;
  EXPECT_EQ(stats.cells_unread(), 0u);
  stats.cells_read = 4;
  EXPECT_EQ(stats.cells_unread(), 0u);
  stats.cells_read = 1;
  EXPECT_EQ(stats.cells_unread(), 3u);
}

TEST(Engine, PoolStatsAtParallelBoundaryMatchSequential) {
  // cells == 2*threads is the smallest field the parallel path accepts
  // (below it the sweep falls back to sequential); the per-lane fold_counts
  // merge must still reproduce the sequential statistics exactly, chunk
  // boundaries and all.
  const auto states = iota_states(6);
  const auto rule = [](std::size_t i, auto& read) -> std::optional<int> {
    if (i % 3 == 2) return std::nullopt;
    return read(i % 2);  // cells 0/1 congested, two cells idle
  };
  IntEngine sequential(states);
  const GenerationStats expected = sequential.step(rule);

  IntEngine pooled(states);
  pooled.set_options(EngineOptions{}.with_threads(3));
  const GenerationStats actual = pooled.step(rule);

  EXPECT_EQ(actual.active_cells, expected.active_cells);
  EXPECT_EQ(actual.total_reads, expected.total_reads);
  EXPECT_EQ(actual.cells_read, expected.cells_read);
  EXPECT_EQ(actual.max_congestion, expected.max_congestion);
  EXPECT_EQ(actual.congestion_classes, expected.congestion_classes);
  EXPECT_EQ(pooled.states(), sequential.states());

  // More threads than the field can use: falls back to sequential, same
  // statistics again.
  IntEngine oversubscribed(states);
  oversubscribed.set_options(EngineOptions{}.with_threads(16));
  const GenerationStats fallback = oversubscribed.step(rule);
  EXPECT_EQ(fallback.total_reads, expected.total_reads);
  EXPECT_EQ(fallback.congestion_classes, expected.congestion_classes);
  EXPECT_EQ(oversubscribed.states(), sequential.states());
}

TEST(Engine, SnapshotRestoreRoundTrip) {
  IntEngine engine(iota_states(4));
  const IntEngine::Snapshot snap = engine.snapshot();
  engine.step([](std::size_t, auto&) -> std::optional<int> { return 42; });
  EXPECT_EQ(engine.state(0), 42);
  EXPECT_EQ(engine.generation(), 1u);
  engine.restore(snap);
  EXPECT_EQ(engine.states(), iota_states(4));
  EXPECT_EQ(engine.generation(), 0u);
}

TEST(Engine, RestoreRejectsForeignSnapshot) {
  IntEngine four(iota_states(4));
  IntEngine five(iota_states(5));
  const IntEngine::Snapshot snap = five.snapshot();
  EXPECT_THROW(four.restore(snap), ContractViolation);
}

TEST(Engine, ReadOverrideInterposesAndClears) {
  IntEngine engine(iota_states(4));
  const int fake = 70;
  engine.set_read_override(
      [&fake](std::size_t, std::size_t target) -> std::optional<int> {
        return target == 0 ? std::optional<int>(fake) : std::nullopt;
      });
  EXPECT_TRUE(engine.has_read_override());
  engine.step([](std::size_t i, auto& read) -> std::optional<int> {
    return read(i == 0 ? 0 : 1);
  });
  EXPECT_EQ(engine.state(0), 70);  // overridden read
  EXPECT_EQ(engine.state(2), 1);   // other targets read through

  engine.set_read_override({});
  EXPECT_FALSE(engine.has_read_override());
  engine.step([](std::size_t, auto& read) -> std::optional<int> {
    return read(0);
  });
  EXPECT_EQ(engine.state(3), 70);  // normal read of the restored path
}

}  // namespace
}  // namespace gcalib::gca
