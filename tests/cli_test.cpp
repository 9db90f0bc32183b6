#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace gcalib {
namespace {

const std::map<std::string, bool> kSpec = {
    {"n", true}, {"family", true}, {"verbose", false}, {"p", true}};

CliArgs parse(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data(), kSpec);
}

TEST(Cli, ParsesSeparateValue) {
  const CliArgs args = parse({"--n", "16"});
  EXPECT_EQ(args.get_int("n", 0), 16);
}

TEST(Cli, ParsesEqualsValue) {
  const CliArgs args = parse({"--n=32", "--family=gnp:0.5"});
  EXPECT_EQ(args.get_int("n", 0), 32);
  EXPECT_EQ(args.get_string("family", ""), "gnp:0.5");
}

TEST(Cli, BooleanFlag) {
  EXPECT_TRUE(parse({"--verbose"}).has("verbose"));
  EXPECT_FALSE(parse({}).has("verbose"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get_int("n", 64), 64);
  EXPECT_EQ(args.get_string("family", "complete"), "complete");
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.25), 0.25);
}

TEST(Cli, ParsesDouble) {
  EXPECT_DOUBLE_EQ(parse({"--p", "0.125"}).get_double("p", 0), 0.125);
}

TEST(Cli, NumericValuesMustBeWholeInRangeLiterals) {
  for (const char* bad : {"abc", "12abc", "2x", "", " 3", "+3", "1e3", "0x10",
                          "99999999999999999999"}) {
    EXPECT_THROW((void)parse({"--n", bad}).get_int("n", 0), std::runtime_error)
        << "'" << bad << "'";
  }
  for (const char* bad : {"x", "0.5x", "", " 1", "inf", "nan", "1e999"}) {
    EXPECT_THROW((void)parse({"--p", bad}).get_double("p", 0),
                 std::runtime_error)
        << "'" << bad << "'";
  }
  EXPECT_EQ(parse({"--n", "-5"}).get_int("n", 0), -5);
  EXPECT_EQ(parse({"--n", "9223372036854775807"}).get_int("n", 0),
            INT64_C(9223372036854775807));
  EXPECT_DOUBLE_EQ(parse({"--p", "1e-3"}).get_double("p", 0), 1e-3);
  try {
    (void)parse({"--n", "12abc"}).get_int("n", 0);
    ADD_FAILURE() << "12abc was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "--n: '12abc' is not an integer");  // flag + value
  }
}

TEST(Cli, PositionalArguments) {
  const CliArgs args = parse({"file1", "--n", "4", "file2"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

TEST(Cli, UnknownOptionThrows) {
  EXPECT_THROW(parse({"--bogus"}), std::runtime_error);
}

TEST(Cli, MissingValueThrows) {
  EXPECT_THROW(parse({"--n"}), std::runtime_error);
}

TEST(Cli, ValueOnBooleanThrows) {
  EXPECT_THROW(parse({"--verbose=yes"}), std::runtime_error);
}

CliArgs parse_exec(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data(),
                        cli::with_engine_flags({{"n", true}}));
}

TEST(CliEngineFlags, Defaults) {
  const cli::EngineFlags exec = cli::engine_flags(parse_exec({}));
  EXPECT_EQ(exec.threads, 1u);
  EXPECT_TRUE(exec.instrumentation);
  EXPECT_FALSE(exec.record_access);
  EXPECT_TRUE(exec.trace_out.empty());
  EXPECT_TRUE(exec.metrics_out.empty());
  EXPECT_FALSE(exec.wants_metrics());
  EXPECT_EQ(exec.deadline_ms, 0);
  EXPECT_TRUE(exec.checkpoint_dir.empty());
  EXPECT_EQ(exec.retries, 0u);
}

TEST(CliEngineFlags, ParsesAllFlags) {
  const cli::EngineFlags exec = cli::engine_flags(
      parse_exec({"--threads", "8", "--no-instrumentation",
                  "--record-access", "--n", "4",
                  "--trace-out", "run.trace.json", "--metrics-out=m.csv",
                  "--deadline-ms", "250", "--checkpoint-dir", "/tmp/ckpt",
                  "--retries=2"}));
  EXPECT_EQ(exec.threads, 8u);
  EXPECT_FALSE(exec.instrumentation);
  EXPECT_TRUE(exec.record_access);
  EXPECT_EQ(exec.trace_out, "run.trace.json");
  EXPECT_EQ(exec.metrics_out, "m.csv");
  EXPECT_TRUE(exec.wants_metrics());
  EXPECT_EQ(exec.deadline_ms, 250);
  EXPECT_EQ(exec.checkpoint_dir, "/tmp/ckpt");
  EXPECT_EQ(exec.retries, 2u);
}

TEST(CliEngineFlags, RejectsNegativeDeadline) {
  EXPECT_THROW((void)cli::engine_flags(parse_exec({"--deadline-ms", "-1"})),
               std::runtime_error);
}

TEST(CliEngineFlags, RejectsOutOfRangeRetries) {
  EXPECT_THROW((void)cli::engine_flags(parse_exec({"--retries", "-1"})),
               std::runtime_error);
  EXPECT_THROW((void)cli::engine_flags(parse_exec({"--retries", "1001"})),
               std::runtime_error);
}

TEST(CliEngineFlags, WantsMetricsWithEitherOutput) {
  EXPECT_TRUE(cli::engine_flags(parse_exec({"--trace-out", "t.json"}))
                  .wants_metrics());
  EXPECT_TRUE(cli::engine_flags(parse_exec({"--metrics-out", "m.csv"}))
                  .wants_metrics());
}

TEST(CliEngineFlags, RejectsZeroThreads) {
  EXPECT_THROW((void)cli::engine_flags(parse_exec({"--threads", "0"})),
               std::runtime_error);
}

TEST(CliEngineFlags, SpecKeepsToolOptions) {
  // with_engine_flags augments, not replaces, the tool's own spec.
  const CliArgs args = parse_exec({"--n", "12", "--threads", "2"});
  EXPECT_EQ(args.get_int("n", 0), 12);
}

TEST(CliEngineFlags, SubstrateIsNotAnEngineFlag) {
  // Production entry points run CSR only; gca_cc_tool declares its own
  // --substrate.  The shared spec rejects it like any unknown option.
  EXPECT_THROW((void)parse_exec({"--substrate", "dense"}), std::runtime_error);
}

TEST(CliEngineFlags, PolicyIsNotAnEngineFlag) {
  // --threads alone picks the sweep backend, so no tool declares --policy.
  EXPECT_THROW((void)parse_exec({"--policy", "pool"}), std::runtime_error);
}

}  // namespace
}  // namespace gcalib
