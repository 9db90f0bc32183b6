#include "gcad/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

namespace gcalib::gcad {

namespace {

[[nodiscard]] Status invalid(std::string message) {
  return Status::error(StatusCode::kInvalidArgument,
                       "request: " + std::move(message));
}

// --- JSON parser ----------------------------------------------------------

constexpr int kMaxDepth = 16;

/// The top-level `edges` member of a request, read as u32 pairs with no
/// DOM node per endpoint.  `member` indexes the empty-array placeholder the
/// parser leaves in the document's object for it, so a later duplicate key
/// still overrides it exactly as in the DOM.
struct TypedEdges {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<graph::Edge> pairs;
  std::size_t member = kNone;
};

class JsonParser {
 public:
  /// With `edges` set, the top-level object's "edges" members are read
  /// into it by `edge_pairs` instead of into the document.
  explicit JsonParser(std::string_view text, TypedEdges* edges = nullptr)
      : text_(text), edges_(edges) {}

  Status parse(Json& out) {
    Status status = value(out, 0);
    if (!status.ok()) return status;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing garbage after the JSON document");
    }
    return Status{};
  }

 private:
  [[nodiscard]] Status fail(const std::string& message) const {
    return Status::error(StatusCode::kInvalidArgument,
                         "json: " + message + " (at byte " +
                             std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than the limit");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"': out.type = Json::Type::kString; return string(out.string);
      case 't':
      case 'f': return boolean(out);
      case 'n': return null(out);
      default: return number(out);
    }
  }

  Status object(Json& out, int depth) {
    ++pos_;  // '{'
    out.type = Json::Type::kObject;
    skip_ws();
    if (eat('}')) return Status{};
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected a string key");
      }
      std::string key;
      Status status = string(key);
      if (!status.ok()) return status;
      skip_ws();
      if (!eat(':')) return fail("expected ':' after object key");
      Json member;
      if (depth == 0 && edges_ != nullptr && key == "edges" && edge_pairs()) {
        member.type = Json::Type::kArray;  // placeholder for the typed pairs
        edges_->member = out.object.size();
      } else {
        status = value(member, depth + 1);
        if (!status.ok()) return status;
      }
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return Status{};
      return fail("expected ',' or '}' in object");
    }
  }

  Status array(Json& out, int depth) {
    ++pos_;  // '['
    out.type = Json::Type::kArray;
    skip_ws();
    if (eat(']')) return Status{};
    while (true) {
      Json element;
      Status status = value(element, depth + 1);
      if (!status.ok()) return status;
      out.array.push_back(std::move(element));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return Status{};
      return fail("expected ',' or ']' in array");
    }
  }

  Status string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status{};
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // needed by the protocol; a lone surrogate is passed through).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape sequence");
      }
    }
    return fail("unterminated string");
  }

  Status boolean(Json& out) {
    out.type = Json::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out.boolean = true;
      pos_ += 4;
      return Status{};
    }
    if (text_.substr(pos_, 5) == "false") {
      out.boolean = false;
      pos_ += 5;
      return Status{};
    }
    return fail("bad literal");
  }

  Status null(Json& out) {
    out.type = Json::Type::kNull;
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return Status{};
    }
    return fail("bad literal");
  }

  /// Reads an `[[u, v], ...]` array of u32 pairs into `edges_` in one
  /// pointer scan: JSON whitespace inline, each endpoint 1 to 10 decimal
  /// digits worth at most 2^32 - 1.  On any other shape (a sign, an 11th
  /// digit, a fraction, a missing bracket, the end of the line) it rewinds
  /// and returns false, and the caller parses the value as a DOM node:
  /// errors and unusual-but-valid inputs take the DOM's exact route, so the
  /// accepted language and every diagnosis stay the DOM's.
  bool edge_pairs() {
    std::vector<graph::Edge>& out = edges_->pairs;
    out.clear();
    const char* p = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    const auto skip_blanks = [&p, end] {
      while (p != end &&
             (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
        ++p;
      }
    };
    const auto eat = [&](char expected) {
      skip_blanks();
      if (p == end || *p != expected) return false;
      ++p;
      return true;
    };
    // An 11th digit or a fraction stops the digits and fails the next eat.
    const auto endpoint = [&](graph::NodeId& value) {
      skip_blanks();
      const char* const first = p;
      std::uint64_t v = 0;
      while (p != end && p - first < 10 && *p >= '0' && *p <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(*p++ - '0');
      }
      value = static_cast<graph::NodeId>(v);
      return p != first && v <= std::numeric_limits<graph::NodeId>::max();
    };
    const auto bail = [&] {
      out.clear();
      edges_->member = TypedEdges::kNone;
      return false;
    };
    if (!eat('[')) return bail();
    if (!eat(']')) {
      do {
        graph::Edge edge;
        if (!eat('[') || !endpoint(edge.u) || !eat(',') ||
            !endpoint(edge.v) || !eat(']')) {
          return bail();
        }
        out.push_back(edge);
      } while (eat(','));
      if (!eat(']')) return bail();
    }
    pos_ = static_cast<std::size_t>(p - text_.data());
    return true;
  }

  Status number(Json& out) {
    out.type = Json::Type::kNumber;
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    bool digits = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) return fail("malformed number");
    const std::string_view token = text_.substr(begin, pos_ - begin);
    if (integral) {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        out.integer = v;
        out.is_integer = true;
        out.number = static_cast<double>(v);
        return Status{};
      }
      return fail("integer out of range");
    }
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc{} || ptr != token.data() + token.size() ||
        !std::isfinite(v)) {
      return fail("malformed number");
    }
    out.number = v;
    return Status{};
  }

  std::string_view text_;
  TypedEdges* edges_ = nullptr;
  std::size_t pos_ = 0;
};

// --- request field extraction ---------------------------------------------

[[nodiscard]] Status require_u64(const Json& value, const char* name,
                                 std::uint64_t& out) {
  if (value.type != Json::Type::kNumber || !value.is_integer ||
      value.integer < 0) {
    return invalid(std::string("\"") + name +
                   "\" must be a non-negative integer");
  }
  out = static_cast<std::uint64_t>(value.integer);
  return Status{};
}

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

Status parse_json(std::string_view text, Json& out) {
  Json parsed;
  Status status = JsonParser(text).parse(parsed);
  if (!status.ok()) return status;
  out = std::move(parsed);
  return Status{};
}

const char* to_string(Op op) {
  switch (op) {
    case Op::kSolve: return "solve";
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kDrain: return "drain";
    case Op::kShutdown: return "shutdown";
  }
  return "unknown";
}

Status parse_request(std::string_view line, Request& out) {
  if (line.size() > kMaxRequestBytes) {
    return invalid("line of " + std::to_string(line.size()) +
                   " bytes exceeds the " + std::to_string(kMaxRequestBytes) +
                   "-byte limit");
  }
  // One pass: the small members land in the DOM, a well-formed "edges"
  // array lands in `typed` as u32 pairs (DESIGN.md §11).
  Json doc;
  TypedEdges typed;
  Status status = JsonParser(line, &typed).parse(doc);
  if (!status.ok()) return status;
  if (doc.type != Json::Type::kObject) {
    return invalid("a request must be a JSON object");
  }

  Request request;
  bool saw_id = false;
  std::uint32_t n = 0;
  const Json* edges = nullptr;  ///< last "edges" member
  bool edges_typed = false;     ///< ... and it is the typed one
  for (std::size_t member = 0; member < doc.object.size(); ++member) {
    const auto& [key, value] = doc.object[member];
    if (key == "id") {
      status = require_u64(value, "id", request.id);
      if (!status.ok()) return status;
      saw_id = true;
    } else if (key == "op") {
      if (value.type != Json::Type::kString) {
        return invalid("\"op\" must be a string");
      }
      if (value.string == "solve") request.op = Op::kSolve;
      else if (value.string == "ping") request.op = Op::kPing;
      else if (value.string == "stats") request.op = Op::kStats;
      else if (value.string == "drain") request.op = Op::kDrain;
      else if (value.string == "shutdown") request.op = Op::kShutdown;
      else return invalid("unknown op \"" + value.string + "\"");
    } else if (key == "n") {
      std::uint64_t raw = 0;
      status = require_u64(value, "n", raw);
      if (!status.ok()) return status;
      if (raw == 0 || raw > kMaxRequestNodes) {
        return invalid("\"n\" must be in [1, " +
                       std::to_string(kMaxRequestNodes) + "]");
      }
      n = static_cast<std::uint32_t>(raw);
    } else if (key == "edges") {
      if (value.type != Json::Type::kArray) {
        return invalid("\"edges\" must be an array of [u, v] pairs");
      }
      edges = &value;
      edges_typed = member == typed.member;
    } else if (key == "deadline_ms") {
      if (value.type != Json::Type::kNumber || !value.is_integer ||
          value.integer < 0) {
        return invalid("\"deadline_ms\" must be a non-negative integer");
      }
      request.deadline_ms = value.integer;
    } else if (key == "priority") {
      if (value.type != Json::Type::kNumber || !value.is_integer ||
          value.integer < kMinPriority || value.integer > kMaxPriority) {
        return invalid("\"priority\" must be an integer in [" +
                       std::to_string(kMinPriority) + ", " +
                       std::to_string(kMaxPriority) + "]");
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

  if (request.op == Op::kSolve) {
    if (!saw_id) return invalid("a solve request needs an \"id\"");
    if (n == 0) return invalid("a solve request needs \"n\"");
    // Range and self-loop checks wait for the whole object: "n" may follow
    // "edges".
    const auto check_pair = [n](std::uint64_t u, std::uint64_t v) {
      if (u >= n || v >= n) {
        return invalid("edge endpoint " + std::to_string(std::max(u, v)) +
                       " is outside [0, " + std::to_string(n) + ")");
      }
      if (u == v) {
        return invalid("self-loop at node " + std::to_string(u) +
                       " is not representable");
      }
      return Status{};
    };
    std::vector<graph::Edge> pairs;
    if (edges_typed) {
      pairs = std::move(typed.pairs);
      for (const graph::Edge& e : pairs) {
        status = check_pair(e.u, e.v);
        if (!status.ok()) return status;
      }
    } else if (edges != nullptr) {
      pairs.reserve(edges->array.size());
      for (const Json& pair : edges->array) {
        if (pair.type != Json::Type::kArray || pair.array.size() != 2) {
          return invalid("each edge must be a [u, v] pair");
        }
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        status = require_u64(pair.array[0], "edge endpoint", u);
        if (!status.ok()) return status;
        status = require_u64(pair.array[1], "edge endpoint", v);
        if (!status.ok()) return status;
        status = check_pair(u, v);
        if (!status.ok()) return status;
        pairs.push_back(graph::Edge{static_cast<graph::NodeId>(u),
                                    static_cast<graph::NodeId>(v)});
      }
    }
    request.graph = graph::Graph::from_edges(n, pairs);
  } else if ((request.op == Op::kPing || request.op == Op::kStats) &&
             !saw_id) {
    return invalid(std::string("a ") + to_string(request.op) +
                   " request needs an \"id\"");
  }

  out = std::move(request);
  return Status{};
}

// --- reply encoding -------------------------------------------------------

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_status(std::string& out, const Status& status) {
  out += "\"status\":\"";
  out += gcalib::to_string(status.code);
  out += "\"";
  if (!status.message.empty()) {
    out += ",\"message\":\"";
    out += json_escape(status.message);
    out += "\"";
  }
}

}  // namespace

std::string encode_accepted(std::uint64_t id, std::int64_t est_wait_ms) {
  return "{\"id\":" + std::to_string(id) +
         ",\"event\":\"accepted\",\"est_wait_ms\":" +
         std::to_string(est_wait_ms) + "}";
}

std::string encode_rejected(std::uint64_t id, const Status& status,
                            bool after_accept) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"event\":\"";
  out += after_accept ? "shed" : "rejected";
  out += "\",";
  append_status(out, status);
  out += "}";
  return out;
}

std::string encode_done(const DoneReply& reply) {
  std::string out = "{\"id\":" + std::to_string(reply.id) +
                    ",\"event\":\"done\",";
  append_status(out, reply.status);
  if (reply.status.ok()) {
    out += ",\"components\":" + std::to_string(reply.components);
    out += ",\"labels\":[";
    for (std::size_t i = 0; i < reply.labels.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(reply.labels[i]);
    }
    out += "]";
  }
  out += ",\"attempts\":" + std::to_string(reply.attempts);
  out += ",\"elapsed_ms\":" + std::to_string(reply.elapsed_ms);
  out += "}";
  return out;
}

std::string encode_pong(std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"event\":\"pong\"}";
}

std::string encode_stats(std::uint64_t id, std::size_t queue_depth,
                         std::int64_t est_wait_ms,
                         const std::string& counters_json) {
  return "{\"id\":" + std::to_string(id) +
         ",\"event\":\"stats\",\"queue_depth\":" +
         std::to_string(queue_depth) +
         ",\"est_wait_ms\":" + std::to_string(est_wait_ms) +
         ",\"counters\":" + counters_json + "}";
}

std::string encode_error(std::optional<std::uint64_t> id,
                         const Status& status) {
  std::string out = "{";
  if (id.has_value()) out += "\"id\":" + std::to_string(*id) + ",";
  out += "\"event\":\"error\",";
  append_status(out, status);
  out += "}";
  return out;
}

std::string encode_overload(unsigned level, std::uint64_t transitions) {
  return "{\"event\":\"overload\",\"level\":" + std::to_string(level) +
         ",\"transitions\":" + std::to_string(transitions) + "}";
}

}  // namespace gcalib::gcad
