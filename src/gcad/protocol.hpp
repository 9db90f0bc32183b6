// gcad wire protocol: line-delimited JSON over a byte stream.
//
// The daemon speaks newline-delimited JSON objects in both directions —
// trivially scriptable (`echo '{"id":1,"n":4,"edges":[[0,1]]}' | gcad`),
// diffable in soak logs, and framing-robust: one line is one message, so a
// malformed line poisons exactly itself and the connection keeps going.
//
// Requests (client -> daemon); unknown keys are rejected, not ignored, so
// a typo'd option fails loudly instead of being silently dropped:
//
//   {"id": 7, "op": "solve", "n": 5, "edges": [[0,1],[2,3]],
//    "deadline_ms": 250, "priority": 2, "client": "alice"}
//   {"id": 8, "op": "stats"}      — counters + queue snapshot
//   {"id": 9, "op": "ping"}       — liveness probe
//   {"op": "drain"}               — stop intake, finish queued work
//   {"op": "shutdown"}            — drain, then exit the serve loop
//
// Replies (daemon -> client), one JSON object per line.  A solve yields
// *two* replies: an immediate admission verdict and, if admitted, a later
// terminal outcome — the pair is what the zero-loss audit of the soak
// driver keys on:
//
//   {"id": 7, "event": "accepted", "est_wait_ms": 3}
//   {"id": 7, "event": "done", "status": "OK", "components": 2,
//    "labels": [0,0,2,2,2], "attempts": 1, "elapsed_ms": 1}
//   {"id": 9, "event": "rejected", "status": "RESOURCE_EXHAUSTED",
//    "message": "intake queue full"}
//   {"event": "error", "status": "INVALID_ARGUMENT", "message": "..."}
//
// The parser is a self-contained strict JSON subset reader (objects,
// arrays, strings with escapes, integer/float numbers, true/false/null)
// with hard depth and size limits — hostile input gets a Status, never an
// exception or unbounded allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"

namespace gcalib::gcad {

// --- minimal JSON document model ------------------------------------------

/// One parsed JSON value.  Numbers keep both views: `number` (double) and,
/// when the literal was integral and in range, `integer` — protocol ids and
/// sizes must be exact, not rounded doubles.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  ///< insertion order

  /// First member named `key`, or nullptr.
  [[nodiscard]] const Json* find(std::string_view key) const;
};

/// Strict parse of exactly one JSON document (trailing garbage rejected).
/// Depth is limited to 16, element counts by the input length.  Returns
/// kInvalidArgument with a position-annotated diagnosis on any error.
[[nodiscard]] Status parse_json(std::string_view text, Json& out);

// --- requests -------------------------------------------------------------

/// Hard cap on one request line; longer lines are shed at the framing
/// layer with an error reply (and the overlong tail is discarded).
inline constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

/// Largest graph a service query may carry.  The offline tools can go
/// bigger; an always-on daemon bounds its per-request work up front.
inline constexpr std::uint32_t kMaxRequestNodes = 4096;

/// Priority band of a query: 0 (best-effort) .. 3 (critical).  Overload
/// shedding evicts lower bands first; fairness weights scale with band.
inline constexpr int kMinPriority = 0;
inline constexpr int kMaxPriority = 3;

enum class Op { kSolve, kPing, kStats, kDrain, kShutdown };

[[nodiscard]] const char* to_string(Op op);

struct Request {
  std::uint64_t id = 0;  ///< client-chosen correlation id (solve/stats/ping)
  Op op = Op::kSolve;
  graph::Graph graph;            ///< solve only
  std::int64_t deadline_ms = 0;  ///< 0 = unlimited
  int priority = 1;
  std::string client;  ///< fairness key; empty = the anonymous client
};

/// Parses and validates one request line.  Every failure — bad JSON, wrong
/// types, unknown op or key, out-of-range endpoint, self-loop, oversized n
/// — is a distinct kInvalidArgument diagnosis; `out` is only written on
/// success.  Never throws on malformed input.  A well-formed `edges` array
/// is read straight into u32 pairs by one pointer scan, with no DOM node
/// per endpoint, and the flat graph is built from them in one counting
/// sort: O(bytes + n + m), two heap blocks per graph.  Any other shape of
/// `edges` takes the DOM, so the language and the diagnoses are
/// `parse_json`'s.
[[nodiscard]] Status parse_request(std::string_view line, Request& out);

// --- replies --------------------------------------------------------------

/// JSON string escaping (control characters, quote, backslash).
[[nodiscard]] std::string json_escape(std::string_view text);

/// `{"id":..,"event":"accepted","est_wait_ms":..}`
[[nodiscard]] std::string encode_accepted(std::uint64_t id,
                                          std::int64_t est_wait_ms);

/// `{"id":..,"event":"rejected","status":..,"message":..}` — the admission
/// verdict for a shed query (also used for post-accept overload eviction,
/// as event "shed", so an accepted query is never dropped silently).
[[nodiscard]] std::string encode_rejected(std::uint64_t id,
                                          const Status& status,
                                          bool after_accept = false);

/// Terminal outcome of an admitted solve.  Labels are included only for OK.
struct DoneReply {
  std::uint64_t id = 0;
  Status status;
  std::vector<graph::NodeId> labels;
  std::size_t components = 0;
  unsigned attempts = 1;
  std::int64_t elapsed_ms = 0;
};
[[nodiscard]] std::string encode_done(const DoneReply& reply);

/// `{"id":..,"event":"pong"}`
[[nodiscard]] std::string encode_pong(std::uint64_t id);

/// `{"id":..,"event":"stats","queue_depth":..,"counters":{...}}` —
/// `counters_json` must already be a JSON object literal.
[[nodiscard]] std::string encode_stats(std::uint64_t id,
                                       std::size_t queue_depth,
                                       std::int64_t est_wait_ms,
                                       const std::string& counters_json);

/// `{"event":"error","status":..,"message":..}` with optional id — the
/// per-line reply to an unparseable or oversized request.
[[nodiscard]] std::string encode_error(std::optional<std::uint64_t> id,
                                       const Status& status);

/// `{"event":"overload","level":..,"transitions":..}` — escalation-ladder
/// transition announcement.
[[nodiscard]] std::string encode_overload(unsigned level,
                                          std::uint64_t transitions);

}  // namespace gcalib::gcad
