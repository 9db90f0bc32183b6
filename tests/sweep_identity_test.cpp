// Dense/sparse equivalence: the sparse sweep mode — engine iterating only
// each generation's ActiveRegion — must be bit-identical to the dense
// whole-field sweep in final labels, cell states and the logical (Table-1)
// statistics, at every thread count; and instrumentation must only
// observe, never change, the field.  Also pins the ActiveRegion
// enumeration/validation semantics the equivalence rests on (DESIGN.md §9).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/engine.hpp"
#include "gca/execution.hpp"
#include "graph/generators.hpp"

namespace gcalib::gca {
namespace {

using core::HirschbergGca;
using core::RunOptions;
using core::RunResult;

// ------------------------------------------------------- region semantics

TEST(ActiveRegion, FullCoversEveryIndexOnce) {
  const ActiveRegion region = ActiveRegion::full(12);
  EXPECT_EQ(region.count(), 12u);
  std::vector<std::size_t> seen;
  region.for_each(0, region.count(),
                  [&](std::size_t i) { seen.push_back(i); });
  std::vector<std::size_t> expected(12);
  for (std::size_t i = 0; i < 12; ++i) expected[i] = i;
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(ActiveRegion::full(0).count(), 0u);
}

TEST(ActiveRegion, StridedEnumerationIsAscendingAndChunkable) {
  // Rows [1,3) of a 4-wide field, columns {0, 2}: indices 4,6,8,10.
  const ActiveRegion region{1, 3, 0, 4, 2, 4};
  EXPECT_EQ(region.cols_per_row(), 2u);
  ASSERT_EQ(region.count(), 4u);
  const std::vector<std::size_t> expected{4, 6, 8, 10};
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(region.index_at(k), expected[k]) << k;
  }
  // Chunked enumeration concatenates to the full enumeration.
  std::vector<std::size_t> seen;
  region.for_each(0, 2, [&](std::size_t i) { seen.push_back(i); });
  region.for_each(2, 4, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(ActiveRegion, DegenerateRangesAreEmpty) {
  EXPECT_EQ((ActiveRegion{2, 2, 0, 4, 1, 4}).count(), 0u);  // no rows
  EXPECT_EQ((ActiveRegion{0, 2, 3, 3, 1, 4}).count(), 0u);  // no columns
  EXPECT_EQ((ActiveRegion{0, 0, 0, 0, 1, 4}).count(), 0u);  // empty literal
}

TEST(ActiveRegion, EngineRejectsMalformedRegions) {
  Engine<int> engine(std::vector<int>(16, 0));
  const auto carry = [](std::size_t, auto&) -> std::optional<int> {
    return std::nullopt;
  };
  // Out of field: row 4 of a 4-stride field is index 16.
  EXPECT_THROW(engine.step(carry, ActiveRegion{4, 5, 0, 1, 1, 4}),
               ContractViolation);
  // Overlapping rows: 6 columns at stride 4 would visit cells twice.
  EXPECT_THROW(engine.step(carry, ActiveRegion{0, 3, 0, 6, 1, 4}),
               ContractViolation);
  // Zero stride cannot enumerate.
  EXPECT_THROW(engine.step(carry, ActiveRegion{0, 2, 0, 4, 0, 4}),
               ContractViolation);
  // An empty region is fine and advances the generation.
  EXPECT_EQ(engine.step(carry, ActiveRegion{0, 0, 0, 0, 1, 4}).active_cells,
            0u);
  EXPECT_EQ(engine.generation(), 1u);
}

TEST(ActiveRegion, SparseStepMatchesDenseOnPlainEngine) {
  // Rule active on even cells only; the even-cell region must produce the
  // same states and logical stats as the dense whole-field sweep.
  const auto rule = [](std::size_t i, auto& read) -> std::optional<int> {
    if (i % 2 != 0) return std::nullopt;
    return read((i + 2) % 32) + 1;
  };
  std::vector<int> initial(32);
  for (std::size_t i = 0; i < 32; ++i) initial[i] = static_cast<int>(i);

  Engine<int> dense(initial, EngineOptions{}.with_sweep(SweepMode::kDense));
  Engine<int> sparse(initial, EngineOptions{}.with_sweep(SweepMode::kSparse));
  const ActiveRegion evens{0, 1, 0, 32, 2, 32};
  for (int s = 0; s < 3; ++s) {
    const GenerationStats d = dense.step(rule, evens);
    const GenerationStats sp = sparse.step(rule, evens);
    EXPECT_TRUE(sp.logically_equal(d)) << s;
    EXPECT_EQ(d.cells_swept, 32u);
    EXPECT_EQ(sp.cells_swept, 16u);  // the physical counter is allowed to
                                     // (and must) differ
  }
  EXPECT_EQ(dense.states(), sparse.states());
}

// ------------------------------------------------- Hirschberg bit-identity

/// Logical projection comparison of two instrumented runs: labels, step
/// identity and every Table-1 statistic — everything except the physical
/// cells_swept/timing fields.
void expect_logically_identical(const RunResult& a, const RunResult& b,
                                const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.generations, b.generations);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(a.records[i].id == b.records[i].id) << i;
    EXPECT_TRUE(a.records[i].stats.logically_equal(b.records[i].stats))
        << i << ": " << a.records[i].stats.label;
  }
}

TEST(SweepIdentity, DenseAndSparseAgreeAcrossBackendsAndThreads) {
  // The acceptance matrix: sparse-vs-dense x threads {1,2,4,7} (one
  // thread sweeps on the caller, more on the pool).  Baseline: dense,
  // single thread.
  const graph::Graph g = graph::random_gnp(33, 0.12, 9);

  RunOptions base_options;
  base_options.sweep = SweepMode::kDense;
  HirschbergGca baseline(g);
  const RunResult base = baseline.run(base_options);
  const auto base_states = baseline.engine().states();

  for (const SweepMode sweep : {SweepMode::kDense, SweepMode::kSparse}) {
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      RunOptions options;
      options.sweep = sweep;
      options.threads = threads;
      HirschbergGca machine(g);
      const RunResult result = machine.run(options);
      const std::string what =
          std::string(to_string(sweep)) + "/t" + std::to_string(threads);
      expect_logically_identical(result, base, what);
      // The final field itself is byte-equal, not just the labels.
      EXPECT_EQ(machine.engine().states(), base_states) << what;
    }
  }
}

/// FNV-1a over every register of every cell: one fingerprint per step.
std::uint64_t field_hash(const std::vector<core::Cell>& cells) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const core::Cell& cell : cells) {
    for (const std::uint32_t word : {cell.a, cell.d, cell.p}) {
      hash = (hash ^ word) * 1099511628211ull;
    }
  }
  return hash;
}

/// The field's fingerprint after every step of one run, plus its labels.
struct Fingerprint {
  std::vector<std::uint64_t> steps;
  std::vector<graph::NodeId> labels;
};

Fingerprint fingerprint(const graph::Graph& g, bool instrument,
                        unsigned threads) {
  HirschbergGca machine(g);
  RunOptions options;
  options.instrument = instrument;
  options.threads = threads;
  Fingerprint fp;
  options.after_step = [&fp](HirschbergGca& m, const core::StepId&) {
    fp.steps.push_back(field_hash(m.engine().states()));
  };
  fp.labels = machine.run(options).labels;
  return fp;
}

/// Instrumentation only observes: an uninstrumented run at any width must
/// reproduce the instrumented one-thread run's field after *every* step,
/// not just its labels, so a divergence at inactive cells or in the p
/// plane cannot hide behind a later all-overwriting generation.
void expect_step_identity(const graph::Graph& g, const std::string& name) {
  const Fingerprint reference = fingerprint(g, /*instrument=*/true, 1);
  ASSERT_FALSE(reference.steps.empty()) << name;
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    const Fingerprint fp = fingerprint(g, /*instrument=*/false, threads);
    const std::string where = name + " x " + std::to_string(threads);
    ASSERT_EQ(fp.labels, reference.labels) << where;
    ASSERT_EQ(fp.steps.size(), reference.steps.size()) << where;
    for (std::size_t step = 0; step < fp.steps.size(); ++step) {
      ASSERT_EQ(fp.steps[step], reference.steps[step])
          << where << " diverges at step " << step;
    }
  }
}

TEST(SweepIdentity, UninstrumentedRunsMatchInstrumentedAtEveryStep) {
  // Small shapes: a sparse random graph, a path (longest pointer chains),
  // unequal cliques (several components) and one complete graph.
  expect_step_identity(graph::random_gnp(19, 0.2, 3), "gnp(19, 0.2)");
  expect_step_identity(graph::path(16), "path(16)");
  expect_step_identity(graph::disjoint_cliques({7, 6, 5}), "cliques(7,6,5)");
  expect_step_identity(graph::complete(8), "complete(8)");
}

TEST(SweepIdentity,
     UninstrumentedDenseRandomGraphMatchesInstrumentedAtEveryStep) {
  // n = 67: ragged against the lane chunks; row-min offsets up to 64.
  expect_step_identity(graph::random_gnp(67, 0.3, 20260809), "gnp(67, 0.3)");
}

TEST(SweepIdentity,
     UninstrumentedSparseRandomGraphMatchesInstrumentedAtEveryStep) {
  // n = 130: row-min offsets up to 128 over a sparse adjacency.
  expect_step_identity(graph::random_gnp(130, 0.08, 424242),
                       "gnp(130, 0.08)");
}

TEST(SweepIdentity, UninstrumentedTreeMatchesInstrumentedAtEveryStep) {
  // Deep component structure: many pointer-jump rounds with real work.
  expect_step_identity(graph::random_tree(96, 7), "tree(96)");
}

TEST(SweepIdentity, SparseSweepsStrictlyLessThanDense) {
  // The whole point: summed over a run, the sparse mode must touch far
  // fewer cells.  (The >= 2x wall-clock acceptance lives in the bench; this
  // pins the work reduction the speedup comes from.)
  const graph::Graph g = graph::complete(32);
  const auto swept_total = [&](SweepMode sweep) {
    RunOptions options;
    options.sweep = sweep;
    std::size_t total = 0;
    HirschbergGca machine(g);
    for (const core::StepRecord& r : machine.run(options).records) {
      total += r.stats.cells_swept;
    }
    return total;
  };
  const std::size_t dense = swept_total(SweepMode::kDense);
  const std::size_t sparse = swept_total(SweepMode::kSparse);
  EXPECT_GT(dense, 2 * sparse);
}

TEST(SweepIdentity, RunOptionsDefaultToSparse) {
  EXPECT_EQ(RunOptions{}.sweep, SweepMode::kSparse);
  EXPECT_EQ(EngineOptions{}.sweep, SweepMode::kSparse);
}

TEST(SweepIdentity, ParseSweepMode) {
  EXPECT_EQ(parse_sweep_mode("dense"), SweepMode::kDense);
  EXPECT_EQ(parse_sweep_mode("sparse"), SweepMode::kSparse);
  EXPECT_THROW((void)parse_sweep_mode("fast"), ContractViolation);
  EXPECT_STREQ(to_string(SweepMode::kDense), "dense");
  EXPECT_STREQ(to_string(SweepMode::kSparse), "sparse");
}

}  // namespace
}  // namespace gcalib::gca
