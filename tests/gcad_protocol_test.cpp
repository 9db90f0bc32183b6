// gcad wire protocol: strict JSON parsing, request validation (every
// malformed line must come back as a distinct kInvalidArgument, never an
// exception), and reply encoding.
#include "gcad/protocol.hpp"

#include <string>

#include "gtest/gtest.h"

namespace gcalib::gcad {
namespace {

// --- JSON parser ----------------------------------------------------------

TEST(GcadJson, ParsesScalarsAndContainers) {
  Json doc;
  ASSERT_TRUE(parse_json("{\"a\":1,\"b\":[true,null,-2.5],\"c\":\"x\"}", doc)
                  .ok());
  ASSERT_EQ(doc.type, Json::Type::kObject);
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->is_integer);
  EXPECT_EQ(a->integer, 1);
  const Json* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_EQ(b->array[0].type, Json::Type::kBool);
  EXPECT_EQ(b->array[1].type, Json::Type::kNull);
  EXPECT_FALSE(b->array[2].is_integer);
  EXPECT_DOUBLE_EQ(b->array[2].number, -2.5);
  EXPECT_EQ(doc.find("c")->string, "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(GcadJson, DecodesStringEscapes) {
  Json doc;
  ASSERT_TRUE(parse_json("\"a\\n\\t\\\"\\\\\\u0041\"", doc).ok());
  EXPECT_EQ(doc.string, "a\n\t\"\\A");
}

TEST(GcadJson, RejectsMalformedInput) {
  Json doc;
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "{'a':1}", "nul", "[1]garbage", "--1", "1e"}) {
    const Status status = parse_json(bad, doc);
    EXPECT_FALSE(status.ok()) << "accepted: " << bad;
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument) << bad;
  }
}

TEST(GcadJson, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += '[';
  for (int i = 0; i < 40; ++i) deep += ']';
  Json doc;
  EXPECT_EQ(parse_json(deep, doc).code, StatusCode::kInvalidArgument);
}

// --- request validation ---------------------------------------------------

TEST(GcadRequest, ParsesFullSolve) {
  Request request;
  ASSERT_TRUE(parse_request(
                  R"({"id":7,"op":"solve","n":5,"edges":[[0,1],[2,3]],)"
                  R"("deadline_ms":250,"priority":2,"client":"alice"})",
                  request)
                  .ok());
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.op, Op::kSolve);
  EXPECT_EQ(request.graph.node_count(), 5u);
  EXPECT_EQ(request.graph.edge_count(), 2u);
  EXPECT_EQ(request.deadline_ms, 250);
  EXPECT_EQ(request.priority, 2);
  EXPECT_EQ(request.client, "alice");
}

TEST(GcadRequest, DefaultsAreApplied) {
  Request request;
  ASSERT_TRUE(
      parse_request(R"({"id":1,"op":"solve","n":3,"edges":[]})", request).ok());
  EXPECT_EQ(request.deadline_ms, 0);
  EXPECT_EQ(request.priority, 1);
  EXPECT_TRUE(request.client.empty());
}

TEST(GcadRequest, ControlOpsParse) {
  Request request;
  EXPECT_TRUE(parse_request(R"({"id":2,"op":"ping"})", request).ok());
  EXPECT_EQ(request.op, Op::kPing);
  EXPECT_TRUE(parse_request(R"({"id":3,"op":"stats"})", request).ok());
  EXPECT_EQ(request.op, Op::kStats);
  EXPECT_TRUE(parse_request(R"({"op":"drain"})", request).ok());
  EXPECT_EQ(request.op, Op::kDrain);
  EXPECT_TRUE(parse_request(R"({"op":"shutdown"})", request).ok());
  EXPECT_EQ(request.op, Op::kShutdown);
}

TEST(GcadRequest, EveryMalformedRequestIsInvalidArgument) {
  const char* bad[] = {
      "not json at all",
      R"({"op":"solve","n":3,"edges":[]})",              // missing id
      R"({"id":1,"op":"teleport"})",                     // unknown op
      R"({"id":1,"op":"solve","edges":[]})",             // missing n
      R"({"id":1,"op":"solve","n":0,"edges":[]})",       // n out of range
      R"({"id":1,"op":"solve","n":999999,"edges":[]})",  // n too large
      R"({"id":1,"op":"solve","n":3,"edges":[[0,3]]})",  // endpoint >= n
      R"({"id":1,"op":"solve","n":3,"edges":[[1,1]]})",  // self loop
      R"({"id":1,"op":"solve","n":3,"edges":[[0]]})",    // not a pair
      R"({"id":1,"op":"solve","n":3,"edges":[0,1]})",    // not nested
      R"({"id":1,"op":"solve","n":3,"edges":[],"priority":9})",
      R"({"id":1,"op":"solve","n":3,"edges":[],"priority":-1})",
      R"({"id":1,"op":"solve","n":3,"edges":[],"deadline_ms":-5})",
      R"({"id":-1,"op":"solve","n":3,"edges":[]})",      // negative id
      R"({"id":1.5,"op":"solve","n":3,"edges":[]})",     // fractional id
      R"({"id":1,"op":"solve","n":3,"edges":[],"bogus":true})",  // unknown key
      R"([1,2,3])",                                      // not an object
  };
  for (const char* line : bad) {
    Request request;
    const Status status = parse_request(line, request);
    EXPECT_FALSE(status.ok()) << "accepted: " << line;
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument) << line;
    EXPECT_FALSE(status.message.empty()) << line;
  }
}

TEST(GcadRequest, ClientNameLengthIsBounded) {
  const std::string long_name(65, 'x');
  Request request;
  const Status status = parse_request(
      R"({"id":1,"op":"solve","n":3,"edges":[],"client":")" + long_name +
          "\"}",
      request);
  EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
}

// --- reply encoding -------------------------------------------------------

TEST(GcadReply, EncodersProduceParseableJson) {
  DoneReply done;
  done.id = 3;
  done.status = Status{};
  done.labels = {0, 0, 2};
  done.components = 2;
  done.attempts = 2;
  done.elapsed_ms = 7;
  for (const std::string& line :
       {encode_accepted(1, 12),
        encode_rejected(2, Status::error(StatusCode::kResourceExhausted,
                                         "queue full")),
        encode_done(done), encode_pong(4),
        encode_stats(5, 9, 3, "{\"accepted\":1}"),
        encode_error(std::nullopt,
                     Status::error(StatusCode::kInvalidArgument, "bad")),
        encode_overload(2, 6)}) {
    Json doc;
    EXPECT_TRUE(parse_json(line, doc).ok()) << line;
    EXPECT_EQ(doc.type, Json::Type::kObject) << line;
    EXPECT_NE(doc.find("event"), nullptr) << line;
  }
}

TEST(GcadReply, DoneCarriesLabelsOnlyWhenOk) {
  DoneReply done;
  done.id = 9;
  done.status = Status::error(StatusCode::kDeadlineExceeded, "expired");
  done.labels = {0, 1};  // must be suppressed for a failed query
  Json doc;
  ASSERT_TRUE(parse_json(encode_done(done), doc).ok());
  EXPECT_EQ(doc.find("status")->string, "DEADLINE_EXCEEDED");
  EXPECT_EQ(doc.find("labels"), nullptr);

  done.status = Status{};
  ASSERT_TRUE(parse_json(encode_done(done), doc).ok());
  ASSERT_NE(doc.find("labels"), nullptr);
  EXPECT_EQ(doc.find("labels")->array.size(), 2u);
}

TEST(GcadReply, RejectedDistinguishesShedAfterAccept) {
  const Status status = Status::error(StatusCode::kResourceExhausted, "evicted");
  Json doc;
  ASSERT_TRUE(parse_json(encode_rejected(4, status, false), doc).ok());
  EXPECT_EQ(doc.find("event")->string, "rejected");
  ASSERT_TRUE(parse_json(encode_rejected(4, status, true), doc).ok());
  EXPECT_EQ(doc.find("event")->string, "shed");
}

TEST(GcadReply, EscapingSurvivesRoundTrip) {
  const std::string hostile = "a\"b\\c\nd\x01";
  Json doc;
  std::string quoted = "\"";
  quoted.append(json_escape(hostile)).append("\"");
  ASSERT_TRUE(parse_json(quoted, doc).ok());
  EXPECT_EQ(doc.string, hostile);
}

}  // namespace
}  // namespace gcalib::gcad
