#include "gcad/journal.hpp"

#include <cstdio>
#include <cstring>
#include <limits>

#include "common/crc32.hpp"
#include "gcad/protocol.hpp"

namespace gcalib::gcad {

namespace {

constexpr char kMagic[4] = {'G', 'C', 'Q', 'J'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kCrcBytes = 4;
constexpr std::size_t kMaxClientBytes = 64;

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

/// Bounds-checked little-endian reader over the journal bytes.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  [[nodiscard]] bool u32(std::uint32_t& out) {
    if (pos_ + 4 > bytes_.size()) return false;
    out = 0;
    for (int i = 3; i >= 0; --i) {
      out = (out << 8) | static_cast<unsigned char>(
                             bytes_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool u64(std::uint64_t& out) {
    if (pos_ + 8 > bytes_.size()) return false;
    out = 0;
    for (int i = 7; i >= 0; --i) {
      out = (out << 8) | static_cast<unsigned char>(
                             bytes_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 8;
    return true;
  }

  [[nodiscard]] bool raw(std::size_t count, std::string& out) {
    if (pos_ + count > bytes_.size()) return false;
    out.assign(bytes_, pos_, count);
    pos_ += count;
    return true;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

[[nodiscard]] Status data_loss(std::string message) {
  return Status::error(StatusCode::kDataLoss,
                       "journal: " + std::move(message));
}

}  // namespace

std::string serialize_journal(const std::vector<JournalEntry>& entries) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  put_u32(out, 0);  // reserved
  for (const JournalEntry& entry : entries) {
    put_u64(out, entry.id);
    put_u32(out, static_cast<std::uint32_t>(entry.priority));
    put_u64(out, static_cast<std::uint64_t>(entry.deadline_ms));
    put_u32(out, static_cast<std::uint32_t>(entry.client.size()));
    out += entry.client;
    put_u32(out, entry.graph.node_count());
    const std::vector<graph::Edge> edges = entry.graph.edges();
    put_u32(out, static_cast<std::uint32_t>(edges.size()));
    for (const graph::Edge& edge : edges) {
      put_u32(out, edge.u);
      put_u32(out, edge.v);
    }
  }
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

Status parse_journal(const std::string& bytes,
                     std::vector<JournalEntry>& out) {
  if (bytes.size() < kHeaderBytes + kCrcBytes) {
    return data_loss("truncated header (" + std::to_string(bytes.size()) +
                     " bytes)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return data_loss("bad magic (not a GCQJ journal)");
  }
  // CRC first: everything after the magic is untrusted until it checks out.
  std::uint32_t stored_crc = 0;
  for (int i = 3; i >= 0; --i) {
    stored_crc = (stored_crc << 8) |
                 static_cast<unsigned char>(
                     bytes[bytes.size() - kCrcBytes + static_cast<std::size_t>(i)]);
  }
  if (stored_crc != crc32(bytes.data(), bytes.size() - kCrcBytes)) {
    return data_loss("CRC mismatch (torn write or bit rot)");
  }

  Reader reader(bytes);
  std::string magic;
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  std::uint32_t reserved = 0;
  if (!reader.raw(4, magic) || !reader.u32(version) || !reader.u32(count) ||
      !reader.u32(reserved)) {
    return data_loss("truncated header");
  }
  if (version != kVersion) {
    return data_loss("unsupported version " + std::to_string(version) +
                     " (expected " + std::to_string(kVersion) + ")");
  }
  if (count > kMaxJournalEntries) {
    return data_loss("entry count " + std::to_string(count) +
                     " exceeds the loader bound");
  }

  std::vector<JournalEntry> entries;
  entries.reserve(count);
  for (std::uint32_t index = 0; index < count; ++index) {
    const std::string at = " in entry " + std::to_string(index);
    JournalEntry entry;
    std::uint32_t priority = 0;
    std::uint64_t deadline = 0;
    std::uint32_t client_len = 0;
    if (!reader.u64(entry.id) || !reader.u32(priority) ||
        !reader.u64(deadline) || !reader.u32(client_len)) {
      return data_loss("truncated entry header" + at);
    }
    if (priority > static_cast<std::uint32_t>(kMaxPriority)) {
      return data_loss("priority " + std::to_string(priority) +
                       " out of range" + at);
    }
    entry.priority = static_cast<int>(priority);
    if (deadline > static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max())) {
      return data_loss("deadline out of range" + at);
    }
    entry.deadline_ms = static_cast<std::int64_t>(deadline);
    if (client_len > kMaxClientBytes) {
      return data_loss("client name of " + std::to_string(client_len) +
                       " bytes exceeds the limit" + at);
    }
    if (!reader.raw(client_len, entry.client)) {
      return data_loss("truncated client name" + at);
    }
    std::uint32_t n = 0;
    std::uint32_t edge_count = 0;
    if (!reader.u32(n) || !reader.u32(edge_count)) {
      return data_loss("truncated graph header" + at);
    }
    if (n == 0 || n > kMaxRequestNodes) {
      return data_loss("node count " + std::to_string(n) + " out of range" +
                       at);
    }
    const std::uint64_t max_edges =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    if (edge_count > max_edges) {
      return data_loss("edge count " + std::to_string(edge_count) +
                       " exceeds the maximum for n = " + std::to_string(n) +
                       at);
    }
    std::vector<graph::Edge> pairs;
    for (std::uint32_t e = 0; e < edge_count; ++e) {
      std::uint32_t u = 0;
      std::uint32_t v = 0;
      if (!reader.u32(u) || !reader.u32(v)) {
        return data_loss("truncated edge list" + at);
      }
      if (u >= n || v >= n) {
        return data_loss("edge endpoint outside the graph" + at);
      }
      if (u == v) return data_loss("self-loop" + at);
      pairs.push_back(graph::Edge{u, v});
    }
    entry.graph = graph::Graph::from_edges(n, pairs);
    entries.push_back(std::move(entry));
  }
  if (reader.pos() != bytes.size() - kCrcBytes) {
    return data_loss("payload length does not match the entry count");
  }
  out = std::move(entries);
  return Status{};
}

Status save_journal_file(const std::string& path,
                         const std::vector<JournalEntry>& entries) {
  const std::string bytes = serialize_journal(entries);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::error(StatusCode::kInternal,
                         "journal: cannot open " + tmp + " for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool flushed = std::fflush(file) == 0;
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status::error(StatusCode::kInternal,
                         "journal: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::error(StatusCode::kInternal,
                         "journal: cannot rename " + tmp + " to " + path);
  }
  return Status{};
}

Status load_journal_file(const std::string& path,
                         std::vector<JournalEntry>& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::error(StatusCode::kNotFound,
                         "journal: no file at " + path);
  }
  std::string bytes;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    bytes.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::error(StatusCode::kInternal,
                         "journal: read error on " + path);
  }
  Status status = parse_journal(bytes, out);
  if (!status.ok()) status.message += " [" + path + "]";
  return status;
}

void remove_journal_file(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace gcalib::gcad
