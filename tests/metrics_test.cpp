#include "gca/metrics.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/assert.hpp"
#include "core/hirschberg_gca.hpp"
#include "core/runner.hpp"
#include "gca/engine.hpp"
#include "gcal/interpreter.hpp"
#include "gcal/parser.hpp"
#include "graph/generators.hpp"

namespace gcalib::gca {
namespace {

using IntEngine = Engine<int>;

std::vector<int> iota_states(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// Two deterministic hand-built steps: one sequential, one with two lanes.
/// All exporter golden tests share this fixture so the formats stay pinned.
/// (Trace owns a mutex, so it is filled in place rather than returned.)
void fill_golden(Trace& trace) {
  GenerationStats a;
  a.generation = 0;
  a.label = "gen0:init";
  a.cell_count = 6;
  a.cells_swept = 6;
  a.active_cells = 6;
  a.start_ns = 1000000;
  a.duration_ns = 2500;
  trace.on_step(a);

  GenerationStats b;
  b.generation = 1;
  b.label = "gen3:row-min.sub1";
  b.cell_count = 6;
  b.cells_swept = 4;  // sparse sweep: only the region's cells are touched
  b.active_cells = 4;
  b.total_reads = 4;
  b.cells_read = 2;
  b.max_congestion = 2;
  b.congestion_classes[2] = 2;
  b.start_ns = 1003000;
  b.duration_ns = 4000;
  b.lane_times.push_back(LaneTiming{0, 1003100, 1500, 3});
  b.lane_times.push_back(LaneTiming{1, 1003200, 1800, 3});
  trace.on_step(b);
}

TEST(Metrics, ChromeTraceGolden) {
  Trace trace;
  fill_golden(trace);
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"gen0:init\",\"cat\":\"step\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":0,\"ts\":0.000,\"dur\":2.500,\"args\":{\"generation\":0,"
      "\"active_cells\":6,\"total_reads\":0,\"max_congestion\":0}},\n"
      "{\"name\":\"gen3:row-min.sub1\",\"cat\":\"step\",\"ph\":\"X\","
      "\"pid\":0,\"tid\":0,\"ts\":3.000,\"dur\":4.000,\"args\":{"
      "\"generation\":1,\"active_cells\":4,\"total_reads\":4,"
      "\"max_congestion\":2}},\n"
      "{\"name\":\"gen3:row-min.sub1/lane0\",\"cat\":\"lane\",\"ph\":\"X\","
      "\"pid\":0,\"tid\":1,\"ts\":3.100,\"dur\":1.500,\"args\":{"
      "\"cells\":3}},\n"
      "{\"name\":\"gen3:row-min.sub1/lane1\",\"cat\":\"lane\",\"ph\":\"X\","
      "\"pid\":0,\"tid\":2,\"ts\":3.200,\"dur\":1.800,\"args\":{"
      "\"cells\":3}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Metrics, MetricsCsvGolden) {
  Trace trace;
  fill_golden(trace);
  std::ostringstream os;
  trace.write_metrics_csv(os);
  const std::string expected =
      "generation,label,start_ns,duration_ns,cell_count,cells_swept,"
      "active_cells,total_reads,cells_read,max_congestion,lanes\n"
      "0,gen0:init,1000000,2500,6,6,6,0,0,0,0\n"
      "1,gen3:row-min.sub1,1003000,4000,6,4,4,4,2,2,2\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Metrics, MetricsJsonGolden) {
  Trace trace;
  fill_golden(trace);
  std::ostringstream os;
  trace.write_metrics_json(os);
  const std::string expected =
      "{\"steps\":[\n"
      "{\"generation\":0,\"label\":\"gen0:init\",\"start_ns\":1000000,"
      "\"duration_ns\":2500,\"cell_count\":6,\"cells_swept\":6,"
      "\"active_cells\":6,"
      "\"total_reads\":0,\"cells_read\":0,\"max_congestion\":0,"
      "\"lanes\":[]},\n"
      "{\"generation\":1,\"label\":\"gen3:row-min.sub1\",\"start_ns\":"
      "1003000,\"duration_ns\":4000,\"cell_count\":6,\"cells_swept\":4,"
      "\"active_cells\":4,"
      "\"total_reads\":4,\"cells_read\":2,\"max_congestion\":2,\"lanes\":["
      "{\"lane\":0,\"start_ns\":1003100,\"duration_ns\":1500,\"cells\":3},"
      "{\"lane\":1,\"start_ns\":1003200,\"duration_ns\":1800,\"cells\":3}"
      "]}\n"
      "],\"summary\":{\"steps\":2,\"wall_ns\":6500,\"span_ns\":7000,"
      "\"parallel_steps\":1,\"lane_utilisation\":0.4125}}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Metrics, SummaryMath) {
  Trace trace;
  fill_golden(trace);
  const TraceSummary sum = trace.summary();
  EXPECT_EQ(sum.steps, 2u);
  EXPECT_EQ(sum.wall_ns, 6500u);          // 2500 + 4000
  EXPECT_EQ(sum.span_ns, 7000u);          // 1007000 - 1000000
  EXPECT_EQ(sum.parallel_steps, 1u);
  // (1500 + 1800) busy over 4000 * 2 lanes of capacity.
  EXPECT_DOUBLE_EQ(sum.lane_utilisation, 3300.0 / 8000.0);
  ASSERT_EQ(sum.by_label.size(), 2u);     // first-appearance order
  EXPECT_EQ(sum.by_label[0].label, "gen0:init");
  EXPECT_EQ(sum.by_label[1].label, "gen3:row-min.sub1");
  EXPECT_EQ(sum.by_label[1].steps, 1u);
  EXPECT_EQ(sum.by_label[1].total_ns, 4000u);
  EXPECT_EQ(sum.by_label[1].max_ns, 4000u);
  EXPECT_EQ(sum.by_label[1].active_cells, 4u);
  EXPECT_EQ(sum.by_label[1].total_reads, 4u);
}

TEST(Metrics, FormatSummaryNamesEveryLabel) {
  Trace trace;
  fill_golden(trace);
  const std::string text = format_summary(trace.summary());
  EXPECT_NE(text.find("2 steps"), std::string::npos);
  EXPECT_NE(text.find("gen0:init"), std::string::npos);
  EXPECT_NE(text.find("gen3:row-min.sub1"), std::string::npos);
  EXPECT_NE(text.find("lane utilisation"), std::string::npos);
}

TEST(Metrics, EmptyTraceExportsAreValidDocuments) {
  Trace trace;
  std::ostringstream chrome;
  trace.write_chrome_trace(chrome);
  EXPECT_EQ(chrome.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
  const TraceSummary sum = trace.summary();
  EXPECT_EQ(sum.steps, 0u);
  EXPECT_EQ(sum.span_ns, 0u);
  EXPECT_DOUBLE_EQ(sum.lane_utilisation, 1.0);
}

TEST(Metrics, LabelsAreJsonEscaped) {
  Trace trace;
  GenerationStats s;
  s.label = "bad\"label\\with\nnoise";
  s.start_ns = 1;
  s.duration_ns = 1;
  trace.on_step(s);
  std::ostringstream os;
  trace.write_chrome_trace(os);
  EXPECT_NE(os.str().find("bad\\\"label\\\\with\\nnoise"), std::string::npos);
}

TEST(Metrics, ClearEmptiesTheTrace) {
  Trace trace;
  fill_golden(trace);
  EXPECT_EQ(trace.size(), 2u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.steps().empty());
}

TEST(Metrics, WriteFilesThrowOnUnwritablePath) {
  Trace trace;
  fill_golden(trace);
  EXPECT_THROW(write_trace_file(trace, "/nonexistent-dir/x.trace.json"),
               std::runtime_error);
  EXPECT_THROW(write_metrics_file(trace, "/nonexistent-dir/x.csv"),
               std::runtime_error);
}

// --- engine integration -------------------------------------------------

TEST(Metrics, NoSinkMeansNoTiming) {
  IntEngine engine(iota_states(64));
  const GenerationStats stats = engine.step(
      [](std::size_t i, auto& read) -> std::optional<int> {
        return read((i + 1) % 64);
      });
  EXPECT_EQ(stats.start_ns, 0u);
  EXPECT_EQ(stats.duration_ns, 0u);
  EXPECT_TRUE(stats.lane_times.empty());
}

TEST(Metrics, SinkReceivesTimedSteps) {
  IntEngine engine(iota_states(64));
  Trace trace;
  engine.add_sink(&trace);
  EXPECT_EQ(engine.sink_count(), 1u);
  const auto rule = [](std::size_t i, auto& read) -> std::optional<int> {
    return read((i + 1) % 64);
  };
  engine.step(rule, "first");
  engine.step(rule, "second");
  ASSERT_EQ(trace.size(), 2u);
  const GenerationStats& first = trace.steps()[0];
  const GenerationStats& second = trace.steps()[1];
  EXPECT_EQ(first.label, "first");
  EXPECT_EQ(second.label, "second");
  EXPECT_GT(first.start_ns, 0u);
  // Steps are timed on one steady clock: monotonically ordered.
  EXPECT_GE(second.start_ns, first.start_ns + first.duration_ns);
}

TEST(Metrics, LaneTimingsCoverTheField) {
  IntEngine engine(iota_states(64));
  engine.set_options(EngineOptions{}.with_threads(4));
  Trace trace;
  engine.add_sink(&trace);
  engine.step([](std::size_t i, auto& read) -> std::optional<int> {
    return read((i + 1) % 64);
  });
  ASSERT_EQ(trace.size(), 1u);
  const GenerationStats& stats = trace.steps()[0];
  ASSERT_EQ(stats.lane_times.size(), 4u);
  std::size_t cells = 0;
  for (std::size_t w = 0; w < stats.lane_times.size(); ++w) {
    const LaneTiming& lane = stats.lane_times[w];
    EXPECT_EQ(lane.lane, w);  // merged in lane order
    cells += lane.cells;
    // Every lane window nests inside the step window.
    EXPECT_GE(lane.start_ns, stats.start_ns);
    EXPECT_LE(lane.start_ns + lane.duration_ns,
              stats.start_ns + stats.duration_ns);
  }
  EXPECT_EQ(cells, 64u);
}

TEST(Metrics, RemoveSinkStopsDelivery) {
  IntEngine engine(iota_states(8));
  Trace trace;
  const std::size_t id = engine.add_sink(&trace);
  const auto rule = [](std::size_t, auto&) -> std::optional<int> { return 0; };
  engine.step(rule);
  engine.remove_sink(id);
  EXPECT_EQ(engine.sink_count(), 0u);
  engine.step(rule);
  EXPECT_EQ(trace.size(), 1u);
}

namespace {

/// Sink that detaches itself from inside its first callback.
struct SelfRemovingSink final : MetricsSink {
  IntEngine* engine = nullptr;
  std::size_t id = 0;
  std::size_t calls = 0;
  void on_step(const GenerationStats&) override {
    ++calls;
    engine->remove_sink(id);
  }
};

}  // namespace

TEST(Metrics, SinkRemovesItselfDuringCallback) {
  IntEngine engine(iota_states(8));
  SelfRemovingSink sink;
  sink.engine = &engine;
  sink.id = engine.add_sink(&sink);
  const auto rule = [](std::size_t, auto&) -> std::optional<int> { return 0; };
  engine.step(rule);
  EXPECT_EQ(sink.calls, 1u);
  EXPECT_EQ(engine.sink_count(), 0u);
  engine.step(rule);
  EXPECT_EQ(sink.calls, 1u);
}

TEST(Metrics, LogicalStatsBitIdenticalAcrossBackends) {
  // The tentpole invariant: attaching a sink times the run but must not
  // perturb any logical quantity, and every sweep width agrees bit for bit.
  const auto states = iota_states(96);
  const auto rule = [](std::size_t i, auto& read) -> std::optional<int> {
    if (i % 7 == 3) return std::nullopt;
    return read(i % 5) + static_cast<int>(i);
  };
  const auto run = [&](EngineOptions options) {
    IntEngine engine(states, options);
    Trace trace;
    engine.add_sink(&trace);
    GenerationStats last;
    for (int s = 0; s < 3; ++s) last = engine.step(rule);
    return std::pair<std::vector<int>, GenerationStats>(engine.states(), last);
  };
  const auto [seq_states, seq] = run(EngineOptions{});
  for (const unsigned threads : {2u, 4u}) {
    const auto [pool_states, pool] =
        run(EngineOptions{}.with_threads(threads));
    EXPECT_EQ(pool_states, seq_states) << "threads=" << threads;
    EXPECT_EQ(pool.active_cells, seq.active_cells);
    EXPECT_EQ(pool.total_reads, seq.total_reads);
    EXPECT_EQ(pool.cells_read, seq.cells_read);
    EXPECT_EQ(pool.max_congestion, seq.max_congestion);
    EXPECT_EQ(pool.congestion_classes, seq.congestion_classes);
  }
}

// --- machine / runner / interpreter integration -------------------------

TEST(Metrics, HirschbergRunFeedsSinkWithLabelledSteps) {
  const graph::Graph g = graph::random_gnp(12, 0.3, 7);
  core::HirschbergGca machine(g);
  Trace trace;
  core::RunOptions options;
  options.threads = 4;
  options.sink = &trace;
  const core::RunResult result = machine.run(options);
  EXPECT_EQ(trace.size(), result.generations);

  bool found_row_min_sub = false;
  for (const GenerationStats& stats : trace.steps()) {
    EXPECT_GT(stats.start_ns, 0u);
    if (stats.label.find("gen3:row-min.sub1") != std::string::npos) {
      found_row_min_sub = true;
      EXPECT_EQ(stats.lane_times.size(), 4u);
    }
  }
  EXPECT_TRUE(found_row_min_sub);

  // The timing also lands in the instrumented records of the run itself.
  ASSERT_FALSE(result.records.empty());
  EXPECT_GT(result.records.front().stats.start_ns, 0u);

  // The guard detaches the sink at the end of run(): a second run with no
  // sink must not deliver anything more.
  core::RunOptions silent;
  silent.threads = 4;
  (void)machine.run(silent);
  EXPECT_EQ(trace.size(), result.generations);
}

TEST(Metrics, RunnerBatchSharesOneThreadSafeSink) {
  Trace trace;
  core::RunnerOptions options;
  options.threads = 4;
  options.sink = &trace;
  const core::Runner runner(options);
  std::vector<graph::Graph> batch;
  std::size_t expected_steps = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    batch.push_back(graph::random_gnp(10, 0.3, seed));
  }
  const std::vector<core::QueryOutcome> outcomes = runner.solve_batch(batch);
  for (const core::QueryOutcome& o : outcomes) {
    ASSERT_TRUE(o.ok());
    expected_steps += o.result.generations;
  }
  EXPECT_EQ(trace.size(), expected_steps);
}

TEST(Metrics, InterpreterForwardsSinkWithSubLabels) {
  const graph::Graph g = graph::random_gnp(8, 0.4, 3);
  const gcal::Program program = gcal::parse(gcal::hirschberg_gcal_source());
  Trace trace;
  const gcal::GcalRunResult result =
      gcal::Interpreter(program).run(g, {}, EngineOptions{}, &trace);
  EXPECT_EQ(trace.size(), result.generations);
  bool found_sub = false;
  for (const GenerationStats& stats : trace.steps()) {
    if (stats.label == "row_min.sub1") found_sub = true;
  }
  EXPECT_TRUE(found_sub);
}

}  // namespace
}  // namespace gcalib::gca
