// gcad server loop end-to-end over string streams: solve round trips,
// malformed-line containment, drain semantics, and crash-restart journal
// replay.  Runs entirely in-process (TSAN-friendly).
#include "gcad/server.hpp"

#include <unistd.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gcad/journal.hpp"
#include "gcad/protocol.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "gtest/gtest.h"

namespace gcalib::gcad {
namespace {

struct Reply {
  std::string event;
  std::optional<std::uint64_t> id;
  Json doc;
};

std::vector<Reply> run_server(const std::string& input,
                              ServerOptions options = {}, int* rc = nullptr) {
  Server server(std::move(options));
  std::istringstream in(input);
  std::ostringstream out;
  const int code = server.serve(in, out);
  if (rc != nullptr) *rc = code;
  std::vector<Reply> replies;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    Reply reply;
    EXPECT_TRUE(parse_json(line, reply.doc).ok()) << line;
    const Json* event = reply.doc.find("event");
    if (event != nullptr) reply.event = event->string;
    const Json* id = reply.doc.find("id");
    if (id != nullptr && id->is_integer) {
      reply.id = static_cast<std::uint64_t>(id->integer);
    }
    replies.push_back(std::move(reply));
  }
  return replies;
}

const Reply* find_reply(const std::vector<Reply>& replies,
                        const std::string& event, std::uint64_t id) {
  for (const Reply& reply : replies) {
    if (reply.event == event && reply.id == id) return &reply;
  }
  return nullptr;
}

std::string temp_journal(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("gcad_server_test_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".gcqj"))
      .string();
}

TEST(GcadServer, SolvesAndRepliesWithExactLabels) {
  const graph::Graph g = graph::random_gnm(24, 18, 7);
  const std::vector<graph::NodeId> want = graph::union_find_components(g);
  std::string edges;
  for (const graph::Edge& e : g.edges()) {
    if (!edges.empty()) edges += ',';
    edges += '[' + std::to_string(e.u) + ',' + std::to_string(e.v) + ']';
  }
  const std::string input =
      "{\"id\":1,\"op\":\"solve\",\"n\":24,\"edges\":[" + edges + "]}\n";
  int rc = -1;
  const std::vector<Reply> replies = run_server(input, {}, &rc);
  EXPECT_EQ(rc, 0);
  ASSERT_NE(find_reply(replies, "accepted", 1), nullptr);
  const Reply* done = find_reply(replies, "done", 1);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->doc.find("status")->string, "OK");
  const Json* labels = done->doc.find("labels");
  ASSERT_NE(labels, nullptr);
  ASSERT_EQ(labels->array.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(labels->array[v].integer, static_cast<std::int64_t>(want[v]));
  }
}

TEST(GcadServer, BatchOfQueriesAllGetTerminalReplies) {
  std::string input;
  for (int i = 1; i <= 12; ++i) {
    input += "{\"id\":" + std::to_string(i) +
             ",\"op\":\"solve\",\"n\":8,\"edges\":[[0,1],[2,3]],\"client\":"
             "\"c" +
             std::to_string(i % 3) + "\"}\n";
  }
  ServerOptions options;
  options.threads = 2;
  options.max_batch = 4;
  const std::vector<Reply> replies = run_server(input, std::move(options));
  for (std::uint64_t id = 1; id <= 12; ++id) {
    EXPECT_NE(find_reply(replies, "accepted", id), nullptr) << id;
    const Reply* done = find_reply(replies, "done", id);
    ASSERT_NE(done, nullptr) << id;
    EXPECT_EQ(done->doc.find("status")->string, "OK") << id;
  }
}

TEST(GcadServer, MalformedLinesAreContainedPerLine) {
  // Four hostile lines, then a valid solve: every bad line gets its own
  // error reply and the daemon keeps serving.
  const std::string input =
      "this is not json\n"
      "{\"id\":5,\"op\":\"teleport\"}\n"
      "{\"id\":6,\"op\":\"solve\",\"n\":3,\"edges\":[[0,9]]}\n"
      "[1,2,3]\n"
      "{\"id\":7,\"op\":\"solve\",\"n\":4,\"edges\":[[0,1]]}\n";
  int rc = -1;
  const std::vector<Reply> replies = run_server(input, {}, &rc);
  EXPECT_EQ(rc, 0);
  std::size_t errors = 0;
  for (const Reply& reply : replies) {
    if (reply.event == "error") ++errors;
  }
  EXPECT_EQ(errors, 4u);
  // Parse failures with a recoverable id echo it for correlation.
  EXPECT_NE(find_reply(replies, "error", 5), nullptr);
  EXPECT_NE(find_reply(replies, "error", 6), nullptr);
  // The valid query after the garbage is fully served.
  EXPECT_NE(find_reply(replies, "accepted", 7), nullptr);
  const Reply* done = find_reply(replies, "done", 7);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->doc.find("status")->string, "OK");
}

TEST(GcadServer, OversizedLineIsShedAtTheFramingLayer) {
  std::string input(kMaxRequestBytes + 10, 'x');
  input += "\n{\"id\":2,\"op\":\"ping\"}\n";
  const std::vector<Reply> replies = run_server(input);
  ASSERT_FALSE(replies.empty());
  EXPECT_EQ(replies[0].event, "error");
  EXPECT_NE(replies[0].doc.find("message")->string.find("byte"),
            std::string::npos);
  EXPECT_NE(find_reply(replies, "pong", 2), nullptr);  // still alive
}

TEST(GcadServer, PingStatsAndShutdownOps) {
  const std::string input =
      "{\"id\":1,\"op\":\"ping\"}\n"
      "{\"id\":2,\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"id\":3,\"op\":\"ping\"}\n";  // after shutdown: never read
  const std::vector<Reply> replies = run_server(input);
  EXPECT_NE(find_reply(replies, "pong", 1), nullptr);
  const Reply* stats = find_reply(replies, "stats", 2);
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(stats->doc.find("counters"), nullptr);
  EXPECT_EQ(find_reply(replies, "pong", 3), nullptr);
}

TEST(GcadServer, DrainRefusesNewWorkButFinishesQueued) {
  const std::string input =
      "{\"id\":1,\"op\":\"solve\",\"n\":6,\"edges\":[[0,1]]}\n"
      "{\"op\":\"drain\"}\n"
      "{\"id\":2,\"op\":\"solve\",\"n\":6,\"edges\":[[2,3]]}\n";
  const std::vector<Reply> replies = run_server(input);
  const Reply* done = find_reply(replies, "done", 1);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->doc.find("status")->string, "OK");
  const Reply* rejected = find_reply(replies, "rejected", 2);
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->doc.find("status")->string, "UNAVAILABLE");
  bool announced = false;
  for (const Reply& reply : replies) {
    if (reply.event == "draining") announced = true;
  }
  EXPECT_TRUE(announced);
}

TEST(GcadServer, JournalReplayFinishesWorkFromACrashedIncarnation) {
  const std::string path = temp_journal("replay");
  // Simulate a crashed daemon: two accepted-but-unfinished queries on disk.
  const graph::Graph g1 = graph::path(6);
  const graph::Graph g2 = graph::disjoint_cliques({3, 4});
  {
    std::vector<JournalEntry> entries;
    JournalEntry a;
    a.id = 41;
    a.priority = 2;
    a.client = "crashed";
    a.graph = g1;
    entries.push_back(a);
    JournalEntry b;
    b.id = 42;
    b.graph = g2;
    entries.push_back(b);
    ASSERT_TRUE(save_journal_file(path, entries).ok());
  }
  ServerOptions options;
  options.journal_path = path;
  int rc = -1;
  // Empty input: the restarted daemon replays the journal, drains, exits.
  const std::vector<Reply> replies = run_server("", std::move(options), &rc);
  EXPECT_EQ(rc, 0);
  for (const auto& [id, graph] :
       std::map<std::uint64_t, const graph::Graph*>{{41, &g1}, {42, &g2}}) {
    const Reply* done = find_reply(replies, "done", id);
    ASSERT_NE(done, nullptr) << id;
    EXPECT_EQ(done->doc.find("status")->string, "OK") << id;
    const std::vector<graph::NodeId> want =
        graph::union_find_components(*graph);
    const Json* labels = done->doc.find("labels");
    ASSERT_NE(labels, nullptr);
    ASSERT_EQ(labels->array.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
      EXPECT_EQ(labels->array[v].integer, static_cast<std::int64_t>(want[v]));
    }
  }
  // Clean exit with an empty queue removes the journal.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(GcadServer, AcceptedQueriesAreJournaledBeforeTheAck) {
  const std::string path = temp_journal("writeahead");
  ServerOptions options;
  options.journal_path = path;
  const std::vector<Reply> replies = run_server(
      "{\"id\":9,\"op\":\"solve\",\"n\":5,\"edges\":[[0,1],[3,4]]}\n",
      std::move(options));
  EXPECT_NE(find_reply(replies, "accepted", 9), nullptr);
  EXPECT_NE(find_reply(replies, "done", 9), nullptr);
  // Everything finished, so the journal is gone again.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(GcadServer, TornJournalIsReportedNotFatal) {
  const std::string path = temp_journal("torn");
  {
    std::vector<JournalEntry> entries;
    JournalEntry a;
    a.id = 1;
    a.graph = graph::path(4);
    entries.push_back(a);
    const std::string bytes = serialize_journal(entries);
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, file);  // torn write
    std::fclose(file);
  }
  ServerOptions options;
  options.journal_path = path;
  int rc = -1;
  const std::vector<Reply> replies = run_server(
      "{\"id\":2,\"op\":\"solve\",\"n\":4,\"edges\":[[0,1]]}\n",
      std::move(options), &rc);
  EXPECT_EQ(rc, 0);
  bool reported = false;
  for (const Reply& reply : replies) {
    if (reply.event == "error" &&
        reply.doc.find("status")->string == "DATA_LOSS") {
      reported = true;
    }
  }
  EXPECT_TRUE(reported);
  // New traffic is served normally despite the unrecoverable history.
  const Reply* done = find_reply(replies, "done", 2);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->doc.find("status")->string, "OK");
  std::filesystem::remove(path);
}

TEST(GcadServer, FaultInjectedQueriesRecoverViaRetry) {
  ServerOptions options;
  options.fault_rate = 1.0;  // expect ~1 fault per engine step: plenty
  options.retries = 2;
  std::string input;
  for (int i = 1; i <= 6; ++i) {
    input += "{\"id\":" + std::to_string(i) +
             ",\"op\":\"solve\",\"n\":10,\"edges\":[[0,1],[4,5],[8,9]]}\n";
  }
  const std::vector<Reply> replies = run_server(input, std::move(options));
  const std::vector<graph::NodeId> want =
      graph::union_find_components(
          graph::Graph::from_edges(10, {{0, 1}, {4, 5}, {8, 9}}));
  for (std::uint64_t id = 1; id <= 6; ++id) {
    const Reply* done = find_reply(replies, "done", id);
    ASSERT_NE(done, nullptr) << id;
    // Injected faults self-check: the outcome is either a clean recovered
    // OK (bit-identical labels) or a loud FAILED_PRECONDITION — never a
    // silently wrong labeling.
    const std::string status = done->doc.find("status")->string;
    if (status == "OK") {
      const Json* labels = done->doc.find("labels");
      ASSERT_NE(labels, nullptr);
      ASSERT_EQ(labels->array.size(), want.size());
      for (std::size_t v = 0; v < want.size(); ++v) {
        EXPECT_EQ(labels->array[v].integer,
                  static_cast<std::int64_t>(want[v]));
      }
    } else {
      EXPECT_EQ(status, "FAILED_PRECONDITION");
    }
  }
}

}  // namespace
}  // namespace gcalib::gcad
