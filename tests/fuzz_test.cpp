// Broad randomized differential battery.  Each instance draws a random
// family, size, density and seed, then checks:
//   * five-way labeling agreement (GCA / tree / n-cell / Hirschberg ref /
//     Shiloach-Vishkin) against union-find,
//   * the schedule closed forms (generation counts),
//   * the congestion contracts (tree variant static delta <= 1, baseline
//     delta <= n+1 on static generations),
//   * the one-handed discipline (implicitly: any violation throws).
// Failures print the reproducer (family, n, p, seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/checkpoint.hpp"
#include "core/hirschberg_gca.hpp"
#include "gcad/journal.hpp"
#include "gcad/protocol.hpp"
#include "core/hirschberg_ncells.hpp"
#include "core/hirschberg_tree.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "pram/hirschberg.hpp"
#include "pram/shiloach_vishkin.hpp"

namespace gcalib {
namespace {

struct Instance {
  std::string family;
  graph::NodeId n = 0;
  std::uint64_t seed = 0;
  graph::Graph graph;
};

Instance draw_instance(Xoshiro256& rng) {
  static const std::vector<std::string> kFamilies = {
      "gnp:0.02", "gnp:0.08", "gnp:0.25", "gnp:0.6", "gnp:0.95",
      "path",     "cycle",    "star",     "complete", "tree",
      "empty",    "cliques:2", "cliques:5", "planted:3:0.3",
      "planted:6:0.15", "bipartite:2"};
  Instance inst;
  inst.family = kFamilies[rng.below(kFamilies.size())];
  // n >= 7 so every family's k-parameter (up to 6 planted parts) is valid.
  inst.n = static_cast<graph::NodeId>(7 + rng.below(25));  // 7..31
  inst.seed = rng();
  inst.graph = graph::make_named(inst.family, inst.n, inst.seed);
  return inst;
}

std::string describe(const Instance& inst) {
  return inst.family + " n=" + std::to_string(inst.n) +
         " seed=" + std::to_string(inst.seed);
}

class FuzzBattery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBattery, FiveWayAgreementAndContracts) {
  Xoshiro256 rng(GetParam() * 7919 + 17);
  for (int round = 0; round < 12; ++round) {
    const Instance inst = draw_instance(rng);
    const std::string context = describe(inst);
    const std::vector<graph::NodeId> oracle =
        graph::union_find_components(inst.graph);

    // Baseline machine with statistics.
    core::HirschbergGca machine(inst.graph);
    const core::RunResult run = machine.run();
    EXPECT_EQ(run.labels, oracle) << context << " [gca]";
    EXPECT_EQ(run.generations, core::total_generations(inst.n)) << context;
    for (const core::StepRecord& record : run.records) {
      if (record.id.generation != core::Generation::kPointerJump &&
          record.id.generation != core::Generation::kFinalMin) {
        EXPECT_LE(record.stats.max_congestion,
                  static_cast<std::size_t>(inst.n) + 1)
            << context << " gen=" << static_cast<int>(record.id.generation);
      }
    }

    // Tree variant: congestion contract.
    core::HirschbergGcaTree tree(inst.graph);
    const core::TreeRunResult tree_run = tree.run();
    EXPECT_EQ(tree_run.labels, oracle) << context << " [tree]";
    EXPECT_LE(tree_run.static_max_congestion, 1u) << context;

    // n-cell variant.
    EXPECT_EQ(core::hirschberg_ncells(inst.graph).labels, oracle)
        << context << " [ncells]";

    // References.
    EXPECT_EQ(pram::hirschberg_reference(inst.graph), oracle)
        << context << " [ref]";
    EXPECT_EQ(pram::shiloach_vishkin_reference(inst.graph), oracle)
        << context << " [sv]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBattery, ::testing::Range<std::uint64_t>(0, 10));

TEST(FuzzBattery, BrentVirtualisedPramMatchesFullyParallel) {
  Xoshiro256 rng(424242);
  for (int round = 0; round < 8; ++round) {
    const Instance inst = draw_instance(rng);
    const auto full = pram::run_hirschberg_pram(inst.graph);
    for (std::size_t p : {1u, 3u, 16u}) {
      const auto brent = pram::run_hirschberg_pram_brent(inst.graph, p);
      EXPECT_EQ(brent.labels, full.labels) << describe(inst) << " p=" << p;
      EXPECT_GE(brent.stats.steps, full.stats.steps) << describe(inst);
      EXPECT_EQ(brent.stats.work, full.stats.work) << describe(inst);
    }
  }
}

// --- checkpoint deserializer fuzzing (DESIGN.md §10) ----------------------
//
// The durable-checkpoint loader is the one parser in the system that eats
// bytes written by a possibly-crashed, possibly-older process from a
// possibly-failing disk.  Contract under fuzz: parse_checkpoint never
// crashes, never accepts corrupt state, and every rejection carries a
// diagnosis.  Accepting is only legal when the bytes round-trip to the
// exact blob a healthy writer would produce.

std::string valid_checkpoint_blob(graph::NodeId n, std::uint64_t seed) {
  core::HirschbergGca machine(graph::random_gnp(n, 0.25, seed));
  (void)machine.initialize();
  machine.run_iteration(0);
  return core::serialize_checkpoint(machine.checkpoint_data(1));
}

/// Feeds `bytes` to the parser and enforces the fuzz contract.
void expect_parser_is_total(const std::string& bytes,
                            const std::string& context) {
  core::CheckpointData out;
  const Status status = core::parse_checkpoint(bytes, out);
  if (status.ok()) {
    // Acceptance is only legal for bytes a healthy writer could have
    // produced: re-serialising the parsed state must reproduce the input
    // bit for bit (a mutation that survives must have been a no-op).
    EXPECT_EQ(core::serialize_checkpoint(out), bytes) << context;
  } else {
    EXPECT_FALSE(status.message.empty()) << context;
  }
}

TEST(FuzzCheckpoint, RandomMutationsNeverCrashOrSlipThrough) {
  Xoshiro256 rng(20260807);
  const std::string pristine = valid_checkpoint_blob(13, 99);
  for (int round = 0; round < 400; ++round) {
    std::string mutated = pristine;
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          static_cast<unsigned char>(1u << (rng() % 8)));
    }
    expect_parser_is_total(mutated, "round " + std::to_string(round));
  }
}

TEST(FuzzCheckpoint, EveryTruncationLengthRejected) {
  const std::string pristine = valid_checkpoint_blob(9, 7);
  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    core::CheckpointData out;
    const Status status = core::parse_checkpoint(pristine.substr(0, keep), out);
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
  }
}

TEST(FuzzCheckpoint, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(31337);
  for (int round = 0; round < 200; ++round) {
    std::string garbage(rng.below(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xFF);
    expect_parser_is_total(garbage, "garbage round " + std::to_string(round));
  }
}

TEST(FuzzCheckpoint, HostileHeadersCannotForceHugeAllocations) {
  // A fuzzed header claiming 2^40 cells must be rejected by the loader
  // bound before any plane allocation happens (this test would OOM/crash
  // otherwise).
  const std::string pristine = valid_checkpoint_blob(9, 7);
  for (std::uint64_t cells :
       {std::uint64_t{1} << 27, std::uint64_t{1} << 40,
        std::uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    std::string hostile = pristine;
    for (std::size_t i = 0; i < 8; ++i) {
      hostile[24 + i] = static_cast<char>((cells >> (8 * i)) & 0xFF);
    }
    core::CheckpointData out;
    EXPECT_FALSE(core::parse_checkpoint(hostile, out).ok())
        << "cells=" << cells;
  }
}

TEST(FuzzCheckpoint, ExtendedAndRepeatedBlobsRejected) {
  // Appending bytes (even another whole valid blob) breaks the exact-length
  // contract; the parser must not read just the first record and accept.
  const std::string pristine = valid_checkpoint_blob(9, 7);
  core::CheckpointData out;
  EXPECT_FALSE(core::parse_checkpoint(pristine + '\0', out).ok());
  EXPECT_FALSE(core::parse_checkpoint(pristine + pristine, out).ok());
}

// --- journal deserializer fuzzing (DESIGN.md §14/§15) ---------------------
//
// The GCQJ queue journal is the other parser fed by a possibly-crashed
// process: gcad replays it before reading any new input, so a torn or
// tampered journal must be rejected whole — never half-loaded into the
// intake queue.  Same fuzz contract as the checkpoint loaders: total,
// honest (round-trip on accept), diagnosed on reject.

std::string valid_journal_blob(std::uint64_t seed) {
  std::vector<gcad::JournalEntry> entries;
  for (std::uint64_t i = 0; i < 5; ++i) {
    gcad::JournalEntry entry;
    entry.id = 100 + i;
    entry.priority = static_cast<int>(i % 4);
    entry.deadline_ms = (i % 2 == 0) ? 0 : 1500;
    entry.client = "client" + std::to_string(i);
    entry.graph =
        graph::random_gnp(static_cast<graph::NodeId>(6 + i), 0.3, seed + i);
    entries.push_back(std::move(entry));
  }
  return gcad::serialize_journal(entries);
}

void expect_journal_parser_is_total(const std::string& bytes,
                                    const std::string& context) {
  std::vector<gcad::JournalEntry> out;
  const Status status = gcad::parse_journal(bytes, out);
  if (status.ok()) {
    EXPECT_EQ(gcad::serialize_journal(out), bytes) << context;
  } else {
    EXPECT_FALSE(status.message.empty()) << context;
  }
}

TEST(FuzzJournal, RandomMutationsNeverCrashOrSlipThrough) {
  Xoshiro256 rng(20260809);
  const std::string pristine = valid_journal_blob(4242);
  for (int round = 0; round < 400; ++round) {
    std::string mutated = pristine;
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          static_cast<unsigned char>(1u << (rng() % 8)));
    }
    expect_journal_parser_is_total(mutated, "round " + std::to_string(round));
  }
}

TEST(FuzzJournal, EveryTruncationLengthRejected) {
  const std::string pristine = valid_journal_blob(7);
  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    std::vector<gcad::JournalEntry> out;
    const Status status = gcad::parse_journal(pristine.substr(0, keep), out);
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
  }
}

TEST(FuzzJournal, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(1729);
  for (int round = 0; round < 200; ++round) {
    std::string garbage(rng.below(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xFF);
    expect_journal_parser_is_total(garbage,
                                   "garbage round " + std::to_string(round));
  }
}

TEST(FuzzJournal, HostileEntryCountsCannotForceHugeAllocations) {
  // A fuzzed header claiming 2^31 entries must be rejected by the
  // kMaxJournalEntries bound before any entry allocation happens.
  const std::string pristine = valid_journal_blob(7);
  for (std::uint32_t count :
       {gcad::kMaxJournalEntries + 1, std::uint32_t{1} << 31,
        std::uint32_t{0xFFFFFFFF}}) {
    std::string hostile = pristine;
    for (std::size_t i = 0; i < 4; ++i) {
      hostile[8 + i] = static_cast<char>((count >> (8 * i)) & 0xFF);
    }
    std::vector<gcad::JournalEntry> out;
    EXPECT_FALSE(gcad::parse_journal(hostile, out).ok())
        << "entries=" << count;
  }
}

TEST(FuzzJournal, ExtendedAndRepeatedBlobsRejected) {
  const std::string pristine = valid_journal_blob(7);
  std::vector<gcad::JournalEntry> out;
  EXPECT_FALSE(gcad::parse_journal(pristine + '\0', out).ok());
  EXPECT_FALSE(gcad::parse_journal(pristine + pristine, out).ok());
}

// --- FuzzRequest: the one-pass request reader against the DOM ---------------

/// The request semantics read entirely through `parse_json`'s DOM: the
/// reference `parse_request` must match on accept/reject, on the diagnosis
/// and on the resulting request.
Status dom_request(const std::string& line, gcad::Request& out) {
  using gcad::Json;
  const auto invalid = [](const std::string& message) {
    return Status::error(StatusCode::kInvalidArgument, "request: " + message);
  };
  const auto u64 = [&](const Json& value, const std::string& name,
                       std::uint64_t& v) {
    if (value.type != Json::Type::kNumber || !value.is_integer ||
        value.integer < 0) {
      return invalid("\"" + name + "\" must be a non-negative integer");
    }
    v = static_cast<std::uint64_t>(value.integer);
    return Status{};
  };
  if (line.size() > gcad::kMaxRequestBytes) {
    return invalid("line of " + std::to_string(line.size()) +
                   " bytes exceeds the " +
                   std::to_string(gcad::kMaxRequestBytes) + "-byte limit");
  }
  Json doc;
  Status status = gcad::parse_json(line, doc);
  if (!status.ok()) return status;
  if (doc.type != Json::Type::kObject) {
    return invalid("a request must be a JSON object");
  }
  gcad::Request request;
  bool saw_id = false;
  std::uint64_t n = 0;
  const Json* edges = nullptr;
  for (const auto& [key, value] : doc.object) {
    if (key == "id") {
      if (!(status = u64(value, "id", request.id)).ok()) return status;
      saw_id = true;
    } else if (key == "op") {
      if (value.type != Json::Type::kString) {
        return invalid("\"op\" must be a string");
      }
      const std::map<std::string, gcad::Op> ops = {
          {"solve", gcad::Op::kSolve}, {"ping", gcad::Op::kPing},
          {"stats", gcad::Op::kStats}, {"drain", gcad::Op::kDrain},
          {"shutdown", gcad::Op::kShutdown}};
      const auto op = ops.find(value.string);
      if (op == ops.end()) {
        return invalid("unknown op \"" + value.string + "\"");
      }
      request.op = op->second;
    } else if (key == "n") {
      if (!(status = u64(value, "n", n)).ok()) return status;
      if (n == 0 || n > gcad::kMaxRequestNodes) {
        return invalid("\"n\" must be in [1, " +
                       std::to_string(gcad::kMaxRequestNodes) + "]");
      }
    } else if (key == "edges") {
      if (value.type != Json::Type::kArray) {
        return invalid("\"edges\" must be an array of [u, v] pairs");
      }
      edges = &value;
    } else if (key == "deadline_ms") {
      if (value.type != Json::Type::kNumber || !value.is_integer ||
          value.integer < 0) {
        return invalid("\"deadline_ms\" must be a non-negative integer");
      }
      request.deadline_ms = value.integer;
    } else if (key == "priority") {
      if (value.type != Json::Type::kNumber || !value.is_integer ||
          value.integer < gcad::kMinPriority ||
          value.integer > gcad::kMaxPriority) {
        return invalid("\"priority\" must be an integer in [0, 3]");
      }
      request.priority = static_cast<int>(value.integer);
    } else if (key == "client") {
      if (value.type != Json::Type::kString || value.string.size() > 64) {
        return invalid("\"client\" must be a string of at most 64 bytes");
      }
      request.client = value.string;
    } else {
      return invalid("unknown key \"" + key + "\"");
    }
  }
  if (request.op == gcad::Op::kSolve) {
    if (!saw_id) return invalid("a solve request needs an \"id\"");
    if (n == 0) return invalid("a solve request needs \"n\"");
    std::vector<graph::Edge> pairs;
    for (const Json& pair : edges != nullptr ? edges->array
                                             : std::vector<Json>{}) {
      if (pair.type != Json::Type::kArray || pair.array.size() != 2) {
        return invalid("each edge must be a [u, v] pair");
      }
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      status = u64(pair.array[0], "edge endpoint", u);
      if (!status.ok()) return status;
      status = u64(pair.array[1], "edge endpoint", v);
      if (!status.ok()) return status;
      if (u >= n || v >= n) {
        return invalid("edge endpoint " + std::to_string(std::max(u, v)) +
                       " is outside [0, " + std::to_string(n) + ")");
      }
      if (u == v) {
        return invalid("self-loop at node " + std::to_string(u) +
                       " is not representable");
      }
      pairs.push_back(graph::Edge{static_cast<graph::NodeId>(u),
                                  static_cast<graph::NodeId>(v)});
    }
    request.graph =
        graph::Graph::from_edges(static_cast<graph::NodeId>(n), pairs);
  } else if ((request.op == gcad::Op::kPing ||
              request.op == gcad::Op::kStats) &&
             !saw_id) {
    return invalid(std::string("a ") + gcad::to_string(request.op) +
                   " request needs an \"id\"");
  }
  out = std::move(request);
  return Status{};
}

/// A valid-looking solve line over a random small graph: members in random
/// order, optional members sometimes present, and now and then a duplicated
/// key, an endpoint equal to n or a self-loop.
std::string random_solve_line(Xoshiro256& rng) {
  const auto n = static_cast<std::uint32_t>(1 + rng.below(24));
  const auto pairs = [&] {
    std::string text = "[";
    const std::size_t m = rng.below(3 * std::uint64_t{n} + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t u = rng.below(rng.below(40) == 0 ? n + 1 : n);
      std::uint64_t v = rng.below(n);
      if (v == u && rng.below(20) != 0) v = (v + 1) % n;
      if (i != 0) text += ',';
      text += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
    }
    return text + "]";
  };
  std::vector<std::string> members = {
      "\"id\":" + std::to_string(rng.below(1000)), "\"op\":\"solve\"",
      "\"n\":" + std::to_string(n), "\"edges\":" + pairs()};
  if (rng.below(2) == 0) {
    members.push_back("\"priority\":" + std::to_string(rng.below(4)));
  }
  if (rng.below(3) == 0) {
    members.push_back("\"deadline_ms\":" + std::to_string(rng.below(500)));
  }
  if (rng.below(3) == 0) members.push_back("\"client\":\"c\\u0041\"");
  if (rng.below(6) == 0) members.push_back("\"edges\":" + pairs());
  if (rng.below(8) == 0) members.push_back(members[rng.below(members.size())]);
  for (std::size_t i = members.size(); i > 1; --i) {
    std::swap(members[i - 1], members[rng.below(i)]);
  }
  std::string line = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) line += ',';
    line += members[i];
  }
  return line + "}";
}

/// One seeded mutation: a byte flip, a truncation, inserted whitespace, or
/// a number swapped for a literal at the edge of the accepted language.
std::string mutate_line(std::string line, Xoshiro256& rng) {
  static const char* const kNumbers[] = {
      "-0", "01", "1e0", "1.0", "4294967296", "4294967295", "-1", "00",
      "9223372036854775808", "2.", "-", "1e", "0x1"};
  static const std::string kBytes = "[]{},:\"\\-+.eE0123456789 \t\r\nxu";
  switch (rng.below(5)) {
    case 0: {  // byte flip
      const std::size_t flips = 1 + rng.below(3);
      for (std::size_t f = 0; f < flips && !line.empty(); ++f) {
        line[rng.below(line.size())] =
            rng.below(4) == 0 ? static_cast<char>(rng() & 0xFF)
                              : kBytes[rng.below(kBytes.size())];
      }
      return line;
    }
    case 1:  // truncation
      return line.substr(0, rng.below(line.size() + 1));
    case 2: {  // whitespace, anywhere (inside tokens too)
      const std::size_t inserts = 1 + rng.below(6);
      for (std::size_t i = 0; i < inserts; ++i) {
        line.insert(rng.below(line.size() + 1), 1, " \t\r\n"[rng.below(4)]);
      }
      return line;
    }
    case 3: {  // a number swapped for an edge-of-language literal
      std::vector<std::pair<std::size_t, std::size_t>> numbers;
      for (std::size_t i = 0; i < line.size();) {
        if (line[i] >= '0' && line[i] <= '9') {
          std::size_t j = i;
          while (j < line.size() && line[j] >= '0' && line[j] <= '9') ++j;
          numbers.emplace_back(i, j - i);
          i = j;
        } else {
          ++i;
        }
      }
      if (numbers.empty()) return line;
      const auto [at, length] = numbers[rng.below(numbers.size())];
      return line.replace(at, length,
                          kNumbers[rng.below(std::size(kNumbers))]);
    }
    default:
      return line;  // unmutated
  }
}

void expect_request_matches_dom(const std::string& line,
                                const std::string& context) {
  gcad::Request typed;
  Status status;
  ASSERT_NO_THROW(status = gcad::parse_request(line, typed)) << context;
  EXPECT_TRUE(status.ok() || status.code == StatusCode::kInvalidArgument)
      << context << ": " << status.to_string();
  gcad::Request dom;
  const Status reference = dom_request(line, dom);
  ASSERT_EQ(status.ok(), reference.ok())
      << context << "\n  line: " << line << "\n  typed: " << status.to_string()
      << "\n  dom:   " << reference.to_string();
  EXPECT_EQ(status.message, reference.message)
      << context << "\n  line: " << line;
  if (!status.ok()) return;
  EXPECT_EQ(typed.op, dom.op) << context;
  EXPECT_EQ(typed.id, dom.id) << context;
  EXPECT_EQ(typed.priority, dom.priority) << context;
  EXPECT_EQ(typed.deadline_ms, dom.deadline_ms) << context;
  EXPECT_EQ(typed.client, dom.client) << context;
  EXPECT_TRUE(typed.graph == dom.graph) << context << "\n  line: " << line;
  EXPECT_EQ(typed.graph.edge_count(), dom.graph.edge_count()) << context;
}

TEST(FuzzRequest, SeededMutationsAgreeWithTheDom) {
  Xoshiro256 rng(20261019);
  std::size_t accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::string line = mutate_line(random_solve_line(rng), rng);
    expect_request_matches_dom(line, "round " + std::to_string(round));
    gcad::Request request;
    if (gcad::parse_request(line, request).ok()) ++accepted;
  }
  // Both sides of the language are exercised.
  EXPECT_GT(accepted, 400u);
  EXPECT_LT(accepted, 3600u);
}

TEST(FuzzRequest, EdgeOfLanguageNumbersAgreeWithTheDom) {
  const char* const lines[] = {
      R"({"id":1,"op":"solve","n":3,"edges":[[-0,1]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[01,2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[1e0,2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[1.0,2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[4294967296,2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,4294967295]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,9223372036854775808]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0, -1]]})",
      R"({"edges":[[2,1]],"id":1,"op":"solve","n":3})",
      R"({"edges":[[2,1]],"edges":[[0,1]],"id":1,"op":"solve","n":3})",
      R"({"edges":[[0,1]],"edges":[[0,1.5]],"id":1,"op":"solve","n":3})",
      R"({"edges":[[0,1.5]],"edges":[[0,1]],"id":1,"op":"solve","n":3})",
      R"({"edges":[[0,7]],"id":1,"op":"solve","n":3,"n":9})",
      R"({"id":1,"op":"ping","edges":[[0,99],[1,1],"x"]})",
      R"({"id":1,"op":"solve","n":3,"edges":[ [ 0 , 1 ] , [1,2] ] })",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,1],]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,1,2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,1]] trailing)",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,1]]}})",
      R"({"id":1,"op":"solve","n":3,"edges":[[[0],1]]})",
      R"({"id":1,"op":"solve","n":3,"edges":{"0":1}})",
      R"({"id":1,"op":"solve","n":3,"edges":[])",
      // The pointer scan's boundaries: ten digits at most, worth at most
      // 2^32 - 1; anything past them is the DOM's to read or diagnose.
      R"({"id":1,"op":"solve","n":3,"edges":[[4294967295,1]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,4294967296]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[9999999999,1]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0000000001,2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[00000000001,2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,00000000002]]})",
      "{\"id\":1,\"op\":\"solve\",\"n\":3,\"edges\":\t[\r[\n0\t,\r1\n]\t,"
      "\r[\n1\t,\r2\n]\t]\r}",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,1],[2]]})",
      R"({"id":1,"op":"solve","n":3,"edges":[ ]})",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,1],[1,)",
      R"({"id":1,"op":"solve","n":3,"edges":[[0,1)",
      R"({"id":1,"op":"solve","n":3,"edges":[[0)",
      R"({"id":1,"op":"solve","n":3,"edges":[)",
      R"({"id":1,"op":"solve","n":3,"edges":)",
  };
  for (const char* line : lines) expect_request_matches_dom(line, line);
}

TEST(FuzzBattery, BrentStepInflationIsExact) {
  // On K_4 (n=4, n^2=16 virtual procs in the wide steps): with p = 4, each
  // 16-processor step charges 4 time units, each 4-processor step 1.
  const graph::Graph g = graph::complete(4);
  const auto full = pram::run_hirschberg_pram(g);
  const auto brent = pram::run_hirschberg_pram_brent(g, 4);
  // Count wide (n^2-processor) executions from the history: candidates +
  // reduction steps run at nn width.
  std::size_t wide = 0, narrow = 0;
  for (const pram::StepStats& s : full.step_history) {
    if (s.processors == 16) {
      ++wide;
    } else {
      ++narrow;
    }
  }
  EXPECT_EQ(brent.stats.steps, 4 * wide + narrow);
}

}  // namespace
}  // namespace gcalib
