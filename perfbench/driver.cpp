// perfbench driver: the measured and the traced half of gcalib's benchmark.
//
// Two modes, one per kind of workload (perfbench/run.py picks the mode and
// sizes from the workload name):
//
//   svc      drives the real `gcad` binary over stdin/stdout pipes.  A closed
//            loop keeps `--inflight` solve requests outstanding; every
//            request is a G(n, m) graph drawn from a seeded pool of distinct
//            graphs, and every `done` reply is checked against union-find.
//   offline  runs edges -> labels in this process: `CsrGraph::from_edges`
//            then `core::Runner::try_solve` on a seeded G(n, m), one call at
//            a time, every labeling checked against union-find.
//
// `--trace 0` prints the end-to-end metrics.  `--trace 1` prints the
// per-layer metrics: it replays the same inputs through each layer's public
// functions, records one span per call (layer, start, end, request) in
// memory and writes them as a Chrome trace at the end.  The svc modes also
// run a short untraced service loop there, whose reply stream and `stats`
// counters give the service-side per-layer figures.  Measured numbers never
// come from a traced run.
//
// Everything the program under test receives is generated here from
// `--seed`; the same seed gives the same inputs.  The last line of standard
// output is one JSON object: {"attempted":..,"failed":..,"metrics":{..}}.
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "gca/metrics.hpp"
#include "gca/thread_pool.hpp"
#include "gcad/admission.hpp"
#include "gcad/journal.hpp"
#include "gcad/latency.hpp"
#include "gcad/protocol.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace {

using gcalib::graph::CsrGraph;
using gcalib::graph::Edge;
using gcalib::graph::NodeId;
namespace core = gcalib::core;
namespace gca = gcalib::gca;
namespace gcad = gcalib::gcad;
namespace graph = gcalib::graph;

// --- small utilities --------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

pid_t g_child = -1;  ///< the running gcad, killed and reaped by `die`

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  if (g_child > 0) {
    kill(g_child, SIGKILL);
    waitpid(g_child, nullptr, 0);
  }
  std::exit(2);
}

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(),
                                    values.begin() + static_cast<long>(mid))) /
         2.0;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

/// Bytes currently allocated from the heap, mmapped chunks included.
std::size_t heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// --- command line -----------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        die("expected --key value pairs, got '" + key + "'");
      }
      args.values[key.substr(2)] = argv[++i];
    }
    return args;
  }
  std::string text(const std::string& key, const std::string& fallback) const {
    const auto found = values.find(key);
    return found == values.end() ? fallback : found->second;
  }
  std::uint64_t count(const std::string& key, std::uint64_t fallback) const {
    const auto found = values.find(key);
    if (found == values.end()) return fallback;
    std::uint64_t out = 0;
    const auto [end, error] = std::from_chars(
        found->second.data(), found->second.data() + found->second.size(), out);
    if (error != std::errc{} || end != found->second.data() + found->second.size()) {
      die("--" + key + " must be a non-negative integer");
    }
    return out;
  }
};

// --- inputs and the union-find oracle ----------------------------------------

/// Min-id component labels by union-find.  Linking the larger root under
/// the smaller keeps every root the minimum of its set.  Independent of
/// the library so that a bug shared by the solver and the library's own
/// union-find cannot pass the check.
std::vector<NodeId> oracle_labels(NodeId n, const std::vector<Edge>& edges) {
  std::vector<NodeId> parent(n);
  for (NodeId v = 0; v < n; ++v) parent[v] = v;
  const auto find = [&](NodeId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : edges) {
    const NodeId a = find(e.u);
    const NodeId b = find(e.v);
    if (a < b) parent[b] = a;
    if (b < a) parent[a] = b;
  }
  std::vector<NodeId> labels(n);
  for (NodeId v = 0; v < n; ++v) labels[v] = find(v);
  return labels;
}

struct Input {
  std::vector<Edge> edges;
  std::vector<NodeId> labels;  ///< union-find answer
  std::string edges_json;      ///< "[[u,v],...]" (svc only)
};

/// `pool` seeded G(n, m) graphs: endpoints uniform, no self-loops.
/// Service graphs have m distinct edges and their JSON encoding; offline
/// graphs are m endpoint pairs whose duplicates the system collapses.
std::vector<Input> make_pool(NodeId n, std::size_t m, std::size_t pool,
                             bool service, std::uint64_t seed) {
  SplitMix64 rng{seed};
  std::vector<Input> inputs(pool);
  for (Input& input : inputs) {
    std::unordered_set<std::uint64_t> seen;
    input.edges.reserve(m);
    while (input.edges.size() < m) {
      auto u = static_cast<NodeId>(rng.below(n));
      auto v = static_cast<NodeId>(rng.below(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (service && !seen.insert((std::uint64_t{u} << 32) | v).second) {
        continue;
      }
      input.edges.push_back({u, v});
    }
    input.labels = oracle_labels(n, input.edges);
    if (service) {
      std::string& json = input.edges_json;
      json = "[";
      for (std::size_t i = 0; i < input.edges.size(); ++i) {
        if (i != 0) json += ",";
        json += "[" + std::to_string(input.edges[i].u) + "," +
                std::to_string(input.edges[i].v) + "]";
      }
      json += "]";
    }
  }
  return inputs;
}

struct Params {
  std::string mode;
  NodeId n = 0;
  std::size_t m = 0;
  std::size_t pool = 1;
  unsigned inflight = 1;
  unsigned clients = 1;
  unsigned lanes = 1;
  double seconds = 1;
  std::uint64_t seed = 1;
  std::string gcad;
  /// Journal file the traced run of a svc workload uses for its journal
  /// layer: a journal-on service phase and the replay's writes.  The
  /// measured loop always runs with the journal off.  Empty = no journal
  /// layer on this workload.
  std::string journal;
  std::string trace_out;
};

/// The request stream: which pool graph the i-th request carries.  Seeded
/// apart from the pool so that the traced replay sees the same sequence as
/// the measured loop.
SplitMix64 request_sequence(const Params& p) {
  return SplitMix64{p.seed * 0x2545F4914F6CDD1Dull + 17};
}

std::string request_line(const Params& p, const Input& input,
                         std::uint64_t id) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"op\":\"solve\",\"n\":" + std::to_string(p.n) +
                     ",\"priority\":1,\"client\":\"c" +
                     std::to_string(id % p.clients) + "\",\"edges\":";
  line += input.edges_json;
  line += "}";
  return line;
}

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"attempted\":" + std::to_string(tally.attempted) +
                    ",\"failed\":" + std::to_string(tally.failed) +
                    ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- the gcad child process --------------------------------------------------

/// One spawned `gcad` with its stdin and stdout on pipes.  The destructor
/// kills and reaps a child that was not shut down cleanly, so no run
/// leaves a process behind.
class GcadProcess {
 public:
  GcadProcess(const std::string& path, const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      die("pipe2 failed");
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) die("fork failed");
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    g_child = pid_;
    close(to_child[0]);
    close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
  }

  ~GcadProcess() {
    close_input();
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      g_child = -1;
    }
    if (out_ >= 0) close(out_);
  }

  GcadProcess(const GcadProcess&) = delete;
  GcadProcess& operator=(const GcadProcess&) = delete;

  /// Writes one request line whole; blocks while the pipe is full.  False
  /// once the daemon stopped reading.
  bool write_line(std::string line) {
    line += '\n';
    std::size_t done = 0;
    while (done < line.size()) {
      const ssize_t wrote = write(in_, line.data() + done, line.size() - done);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) return false;
      done += static_cast<std::size_t>(wrote);
    }
    return true;
  }

  /// Next reply line without its newline; false at end of stream.
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[1 << 16];
      const ssize_t got = read(out_, chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// EOF on the daemon's stdin: it drains its queue and exits.
  void close_input() {
    if (in_ >= 0) close(in_);
    in_ = -1;
  }

  /// Waits for the child; returns its peak RSS in MiB, or -1 when it did
  /// not exit with status 0.  Its stdout must already be read to EOF.
  double reap() {
    close_input();
    int status = 0;
    struct rusage usage {};
    if (wait4(pid_, &status, 0, &usage) != pid_) return -1;
    pid_ = -1;
    g_child = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< buffer bytes known to hold no newline
};

// --- reply scanning -----------------------------------------------------------

/// Offset just past `"key":` in a reply line, or npos.
std::size_t value_at(std::string_view line, std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\"";
  std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return at;
  at += pattern.size();
  while (at < line.size() && line[at] == ' ') ++at;
  if (at >= line.size() || line[at] != ':') return std::string_view::npos;
  ++at;
  while (at < line.size() && line[at] == ' ') ++at;
  return at;
}

std::string_view string_field(std::string_view line, std::string_view key) {
  const std::size_t at = value_at(line, key);
  if (at == std::string_view::npos || line[at] != '"') return {};
  const std::size_t end = line.find('"', at + 1);
  if (end == std::string_view::npos) return {};
  return line.substr(at + 1, end - at - 1);
}

std::optional<std::uint64_t> int_field(std::string_view line,
                                       std::string_view key) {
  const std::size_t at = value_at(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  std::uint64_t out = 0;
  const auto [end, error] =
      std::from_chars(line.data() + at, line.data() + line.size(), out);
  if (error != std::errc{}) return std::nullopt;
  return out;
}

bool labels_field(std::string_view line, std::vector<NodeId>& out) {
  out.clear();
  std::size_t at = value_at(line, "labels");
  if (at == std::string_view::npos || line[at] != '[') return false;
  const char* cursor = line.data() + at + 1;
  const char* end = line.data() + line.size();
  while (cursor < end) {
    while (cursor < end && (*cursor == ',' || *cursor == ' ')) ++cursor;
    if (cursor < end && *cursor == ']') return true;
    NodeId value = 0;
    const auto [next, error] = std::from_chars(cursor, end, value);
    if (error != std::errc{}) return false;
    out.push_back(value);
    cursor = next;
  }
  return false;
}

// --- svc: the closed loop against gcad -----------------------------------------

struct Counters {
  std::uint64_t completed_ok = 0;
  std::uint64_t batches = 0;
  std::uint64_t journal_writes = 0;
};

Counters parse_counters(std::string_view stats) {
  Counters c;
  c.completed_ok = int_field(stats, "completed_ok").value_or(0);
  c.batches = int_field(stats, "batches").value_or(0);
  c.journal_writes = int_field(stats, "journal_writes").value_or(0);
  return c;
}

struct ServiceResult {
  std::vector<double> setup_s;       ///< spawn -> first pong, per spawn
  std::vector<double> latency_ms;    ///< write -> done, measured OK queries
  std::vector<double> intake_ms;     ///< write -> accepted
  std::vector<double> service_ms;    ///< accepted -> done
  double window_s = 0;               ///< first measured write -> last done
  std::vector<double> peak_rss_mb;   ///< per gcad process
  std::vector<double> session_qps;   ///< OK queries per second, per process
  Counters counted;                  ///< `stats` growth while measuring
};

std::vector<std::string> gcad_args(const Params& p, bool journaled) {
  std::vector<std::string> args = {"--threads", std::to_string(p.lanes),
                                   "--quiet"};
  if (journaled) {
    args.push_back("--journal");
    args.push_back(p.journal);
  }
  return args;
}

/// Spawns gcad and waits for its first pong; returns the elapsed seconds.
double spawn_until_pong(const Params& p, bool journaled,
                        std::unique_ptr<GcadProcess>& proc) {
  if (journaled) std::remove(p.journal.c_str());  // no stale replay
  const std::int64_t start = now_ns();
  proc = std::make_unique<GcadProcess>(p.gcad, gcad_args(p, journaled));
  if (!proc->write_line("{\"id\":0,\"op\":\"ping\"}")) die("gcad closed stdin");
  std::string line;
  while (proc->read_line(line)) {
    if (string_field(line, "event") == "pong") return seconds_since(start);
  }
  die("gcad exited before answering ping (is " + p.gcad + " runnable?)");
}

/// One client session against one gcad.  This thread writes requests, each
/// line whole, while a reader thread takes replies: a client that wrote
/// first and read afterwards would deadlock on large graphs, whose reply
/// lines fill the pipe until gcad blocks emitting `accepted` from its
/// intake thread and stops reading.
class ServiceLoop {
 public:
  ServiceLoop(const Params& p, bool journaled, const std::vector<Input>& inputs,
              SplitMix64& sequence, Tally& tally)
      : p_(p), journaled_(journaled), inputs_(inputs), tally_(tally),
        sequence_(sequence) {}

  /// `spawns` timed start-ups, the last of which serves a warm-up and then
  /// `seconds` of measured load.
  ServiceResult run(double seconds, int spawns) {
    ServiceResult result;
    for (int i = 0; i < spawns; ++i) {
      std::unique_ptr<GcadProcess> proc;
      result.setup_s.push_back(spawn_until_pong(p_, journaled_, proc));
      if (i + 1 < spawns) {
        proc->close_input();
        std::string line;
        while (proc->read_line(line)) {
        }
        if (proc->reap() < 0) die("gcad did not exit cleanly after EOF");
      } else {
        proc_ = std::move(proc);
      }
    }
    std::thread reader([this] { read_replies(); });

    // Warm-up: the latency model learns and caches fill before timing.
    const std::int64_t warm_start = now_ns();
    while (finished() < p_.inflight || seconds_since(warm_start) < 0.25) {
      if (!issue(false)) break;
    }
    wait_idle();
    const Counters before = stats();

    const std::int64_t start = now_ns();
    while (seconds_since(start) < seconds) {
      if (!issue(true)) break;
    }
    wait_idle();
    const Counters after = stats();
    result.counted = {after.completed_ok - before.completed_ok,
                      after.batches - before.batches,
                      after.journal_writes - before.journal_writes};

    proc_->close_input();
    reader.join();
    result.peak_rss_mb.push_back(proc_->reap());
    if (result.peak_rss_mb.back() < 0) fail("gcad did not exit cleanly after EOF");
    if (!fatal_.empty()) die(fatal_);

    std::int64_t last_done = start;
    for (const Record& r : records_) {
      if (!r.measured || !r.ok) continue;
      last_done = std::max(last_done, r.done);
      result.latency_ms.push_back(static_cast<double>(r.done - r.written) * 1e-6);
      result.intake_ms.push_back(static_cast<double>(r.accepted - r.written) * 1e-6);
      result.service_ms.push_back(static_cast<double>(r.done - r.accepted) * 1e-6);
    }
    result.window_s = static_cast<double>(last_done - start) * 1e-9;
    return result;
  }

 private:
  struct Record {
    std::uint32_t input = 0;
    bool measured = false;
    bool finished = false;
    bool ok = false;
    std::int64_t written = 0;
    std::int64_t accepted = 0;
    std::int64_t done = 0;
  };

  static constexpr auto kStall = std::chrono::seconds(60);

  std::uint64_t finished() {
    std::lock_guard<std::mutex> lock(mutex_);
    return finished_;
  }

  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fatal_.empty()) fatal_ = why;
    cv_.notify_all();
  }

  /// Sends one request once fewer than `inflight` are outstanding.
  bool issue(bool measured) {
    std::uint64_t id = 0;
    std::uint32_t input = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, kStall, [&] {
            return in_flight_ < p_.inflight || !fatal_.empty();
          })) {
        fatal_ = "no reply from gcad for 60 s";
      }
      if (!fatal_.empty()) return false;
      input = static_cast<std::uint32_t>(sequence_.below(inputs_.size()));
      records_.push_back({input, measured});
      id = records_.size();
      ++in_flight_;
    }
    std::string line = request_line(p_, inputs_[input], id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      records_[id - 1].written = now_ns();
    }
    if (!proc_->write_line(std::move(line))) {
      fail("gcad stopped reading requests");
      return false;
    }
    return true;
  }

  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, kStall,
                      [&] { return in_flight_ == 0 || !fatal_.empty(); })) {
      fatal_ = "gcad left queries unanswered for 60 s";
    }
    if (!fatal_.empty()) die(fatal_);
  }

  Counters stats() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_line_.clear();
    }
    if (!proc_->write_line("{\"id\":0,\"op\":\"stats\"}")) die("gcad closed stdin");
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, kStall,
                      [&] { return !stats_line_.empty() || !fatal_.empty(); }) ||
        !fatal_.empty()) {
      die(fatal_.empty() ? "gcad did not answer stats" : fatal_);
    }
    return parse_counters(stats_line_);
  }

  /// Marks query `id` terminal.  Holds `mutex_`.
  void finish_locked(std::uint64_t id, bool ok, std::int64_t at) {
    Record& r = records_[id - 1];
    if (r.finished) {
      if (fatal_.empty()) fatal_ = "two terminal replies for query " + std::to_string(id);
      return;
    }
    r.finished = true;
    r.ok = ok;
    r.done = at;
    tally_.check(ok);
    ++finished_;
    --in_flight_;
    cv_.notify_all();
  }

  void read_replies() {
    std::string line;
    std::vector<NodeId> labels;
    while (proc_->read_line(line)) {
      const std::int64_t at = now_ns();
      const std::string_view event = string_field(line, "event");
      const std::optional<std::uint64_t> id = int_field(line, "id");
      const bool known = id && *id >= 1 && *id <= issued();
      if (event == "accepted" && known) {
        std::lock_guard<std::mutex> lock(mutex_);
        records_[*id - 1].accepted = at;
      } else if (event == "done" && known) {
        std::uint32_t input = 0;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          input = records_[*id - 1].input;
        }
        const bool ok = string_field(line, "status") == "OK" &&
                        labels_field(line, labels) &&
                        labels == inputs_[input].labels;
        if (!ok) {
          std::fprintf(stderr, "perfbench: query %llu failed: %.200s\n",
                       static_cast<unsigned long long>(*id), line.c_str());
        }
        std::lock_guard<std::mutex> lock(mutex_);
        finish_locked(*id, ok, at);
      } else if (event == "rejected" || event == "shed" || event == "error") {
        if (!known) {
          fail("gcad error without a known query id: " + line.substr(0, 200));
          continue;
        }
        std::fprintf(stderr, "perfbench: query %llu refused: %.200s\n",
                     static_cast<unsigned long long>(*id), line.c_str());
        std::lock_guard<std::mutex> lock(mutex_);
        finish_locked(*id, false, at);
      } else if (event == "stats") {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_line_ = line;
        cv_.notify_all();
      }
      // overload and draining announcements carry no query outcome.
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (in_flight_ != 0 && fatal_.empty()) fatal_ = "gcad closed its output early";
    cv_.notify_all();
  }

  std::uint64_t issued() {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }

  const Params& p_;
  const bool journaled_;
  const std::vector<Input>& inputs_;
  Tally& tally_;
  SplitMix64& sequence_;
  std::unique_ptr<GcadProcess> proc_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Record> records_;  ///< query id i is records_[i - 1]
  unsigned in_flight_ = 0;
  std::uint64_t finished_ = 0;
  std::string stats_line_;
  std::string fatal_;
};

/// The closed loop over `sessions` fresh gcad processes, `seconds` split
/// evenly between them, so that one process that the machine slowed down
/// moves the median rate over sessions little.
ServiceResult run_service(const Params& p, bool journaled,
                          const std::vector<Input>& inputs, double seconds,
                          unsigned sessions, Tally& tally) {
  SplitMix64 sequence = request_sequence(p);
  ServiceResult total;
  for (unsigned s = 0; s < sessions; ++s) {
    ServiceLoop loop(p, journaled, inputs, sequence, tally);
    // Set-up is sampled over extra start-ups in the first session.
    const ServiceResult r = loop.run(seconds / sessions, s == 0 ? 10 : 1);
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(total.setup_s, r.setup_s);
    append(total.latency_ms, r.latency_ms);
    append(total.intake_ms, r.intake_ms);
    append(total.service_ms, r.service_ms);
    append(total.peak_rss_mb, r.peak_rss_mb);
    total.window_s += r.window_s;
    total.session_qps.push_back(static_cast<double>(r.latency_ms.size()) /
                                r.window_s);
    total.counted.completed_ok += r.counted.completed_ok;
    total.counted.batches += r.counted.batches;
    total.counted.journal_writes += r.counted.journal_writes;
  }
  return total;
}

// --- traced replay: spans around each layer's public functions ---------------

struct Span {
  const char* layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t request;  ///< query id the span belongs to
};

class SpanLog {
 public:
  template <typename F>
  decltype(auto) record(const char* layer, std::uint64_t request, F&& work) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      work();
      spans_.push_back({layer, start, now_ns(), request});
    } else {
      auto result = work();
      spans_.push_back({layer, start, now_ns(), request});
      return result;
    }
  }

  /// Durations of every span of `layer`, in microseconds.
  std::vector<double> durations_us(std::string_view layer) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (layer == s.layer) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
    return out;
  }

  /// Duration of the most recent span, in microseconds.
  double last_us() const {
    return static_cast<double>(spans_.back().end_ns - spans_.back().start_ns) *
           1e-3;
  }

  double median_us(std::string_view layer) const {
    return median(durations_us(layer));
  }

  /// A count or derived figure taken at a layer boundary, such as bytes
  /// parsed or rounds run; per-layer metrics take the median of each name.
  void note(const std::string& name, double value) { notes_[name].push_back(value); }

  bool has_note(const std::string& name) const { return notes_.count(name) != 0; }

  double median_note(const std::string& name) const {
    const auto found = notes_.find(name);
    return found == notes_.end() ? 0.0 : median(found->second);
  }

  /// Chrome trace_event JSON, one "X" slice per span.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) die("cannot write " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.layer
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << number(static_cast<double>(s.start_ns - origin) * 1e-3)
          << ",\"dur\":" << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
          << ",\"args\":{\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> notes_;
};

/// The three solvers the replay compares: the workload's lanes with and
/// without a `gca::Trace` sink, and one lane.
struct Solvers {
  explicit Solvers(unsigned lanes)
      : parallel(options(lanes, nullptr)),
        traced(options(lanes, &trace)),
        sequential(options(1, nullptr)) {}

  static core::RunnerOptions options(unsigned lanes, gca::Trace* sink) {
    core::RunnerOptions o;
    o.threads = lanes;
    o.sink = sink;
    return o;
  }

  gca::Trace trace;
  core::Runner parallel;
  core::Runner traced;
  core::Runner sequential;
  unsigned replays = 0;
};

/// Solver-layer spans for one graph: untraced and traced solves at the
/// workload's lanes (alternating which runs first), a one-lane solve, and
/// the union-find baseline on the raw edges.
void solver_layers(const CsrGraph& csr, const Input& input, std::uint64_t id,
                   Solvers& s, SpanLog& spans, Tally& tally) {
  const auto check = [&](const core::QueryOutcome& outcome) {
    tally.check(outcome.ok() && outcome.result.labels == input.labels);
  };
  const auto untraced = [&] {
    check(spans.record("core.solver.solve", id,
                       [&] { return s.parallel.try_solve(csr); }));
  };
  const auto traced = [&] {
    s.trace.clear();
    check(spans.record("core.solver.solve_traced", id,
                       [&] { return s.traced.try_solve(csr); }));
    double hook = 0;
    double jump = 0;
    double rounds = 0;
    for (const gca::GenerationStats& step : s.trace.steps()) {
      const double ms = static_cast<double>(step.duration_ns) * 1e-6;
      if (step.label.starts_with("hook") || step.label.starts_with("cas-hook")) {
        hook += ms;
        rounds += 1;
      } else if (step.label.starts_with("jump") ||
                 step.label.starts_with("shortcut")) {
        jump += ms;
      }
    }
    spans.note("core.solver.hook_ms", hook);
    spans.note("core.solver.jump_ms", jump);
    spans.note("core.solver.rounds", rounds);
  };
  if (s.replays++ % 2 == 0) {
    untraced();
    traced();
  } else {
    traced();
    untraced();
  }
  spans.note("arcs", 2.0 * static_cast<double>(csr.edge_count()));
  check(spans.record("core.solver.seq", id,
                     [&] { return s.sequential.try_solve(csr); }));
  const std::vector<NodeId> uf = spans.record("graph.union_find", id, [&] {
    graph::UnionFind sets(csr.node_count());
    for (const Edge& e : input.edges) sets.unite(e.u, e.v);
    return sets.min_labels();
  });
  tally.check(uf == input.labels);
}

/// The service path of one request group, replayed layer by layer: parse,
/// build, copy, encode per request; admission, journal and batch solve per
/// group of `inflight` requests (the loop's queue depth), dequeued in
/// batches of the measured mean batch size.
void replay_service(const Params& p, const std::vector<Input>& inputs,
                    double budget_s, std::size_t batch, SpanLog& spans,
                    Solvers& solvers, Tally& tally) {
  SplitMix64 sequence = request_sequence(p);
  gcad::LatencyModel model;
  model.set_solver_threads(p.lanes);
  gcad::AdmissionConfig config;
  config.workers = p.lanes;
  gcad::AdmissionController admission(config, &model);
  const std::string journal_path = p.journal + ".replay";

  constexpr std::uint64_t kMaxRequests = 2000;
  const std::int64_t start = now_ns();
  std::uint64_t id = 0;
  while (id == 0 || (seconds_since(start) < budget_s && id < kMaxRequests)) {
    std::vector<gcad::PendingQuery> group;
    std::vector<gcad::JournalEntry> journal;
    std::vector<std::uint32_t> group_inputs;
    for (unsigned k = 0; k < p.inflight; ++k) {
      ++id;
      const auto which = static_cast<std::uint32_t>(sequence.below(inputs.size()));
      const Input& input = inputs[which];
      const std::string line = request_line(p, input, id);
      spans.note("gcad.protocol.request_bytes", static_cast<double>(line.size()));
      gcad::Json doc;
      const gcalib::Status json_ok = spans.record(
          "gcad.protocol.parse_json", id, [&] { return gcad::parse_json(line, doc); });
      const double json_us = spans.last_us();
      gcad::Request request;
      const gcalib::Status request_ok = spans.record(
          "gcad.protocol.parse_request", id,
          [&] { return gcad::parse_request(line, request); });
      tally.check(json_ok.ok() && request_ok.ok());
      if (!request_ok.ok()) die("replay: " + request_ok.to_string());
      spans.note("gcad.protocol.graph_build_us", spans.last_us() - json_us);

      const std::size_t heap_before = heap_bytes();
      {
        const graph::Graph copy =
            spans.record("graph.dense_copy", id, [&] { return request.graph; });
        spans.note("graph.dense_bytes", static_cast<double>(heap_bytes() - heap_before));
      }
      const CsrGraph csr = spans.record("graph.csr_from_graph", id, [&] {
        return CsrGraph::from_graph(request.graph);
      });
      solver_layers(csr, input, id, solvers, spans, tally);

      gcad::DoneReply reply;
      reply.id = id;
      reply.labels = input.labels;
      for (NodeId v = 0; v < p.n; ++v) reply.components += input.labels[v] == v;
      const std::string encoded = spans.record(
          "gcad.protocol.encode_done", id, [&] { return gcad::encode_done(reply); });
      tally.check(!encoded.empty());

      if (!p.journal.empty()) {
        gcad::JournalEntry entry;
        entry.id = id;
        entry.client = request.client;
        entry.graph = request.graph;
        journal.push_back(std::move(entry));
      }
      gcad::PendingQuery query;
      query.id = id;
      query.graph = std::move(request.graph);
      query.priority = request.priority;
      query.client = std::move(request.client);
      group.push_back(std::move(query));
      group_inputs.push_back(which);
    }

    const std::uint64_t first = id - p.inflight + 1;
    for (gcad::PendingQuery& query : group) {
      query.admitted_at = std::chrono::steady_clock::now();
      const std::uint64_t qid = query.id;
      const gcad::AdmissionVerdict verdict = spans.record(
          "gcad.admission.admit", qid,
          [&] { return admission.admit(std::move(query), false); });
      tally.check(verdict.status.ok() && verdict.evicted.empty());
    }
    if (!p.journal.empty()) {
      const std::string bytes = spans.record(
          "gcad.journal.serialize", first, [&] { return gcad::serialize_journal(journal); });
      spans.note("gcad.journal.bytes_per_write", static_cast<double>(bytes.size()));
      const gcalib::Status saved = spans.record(
          "gcad.journal.save", first,
          [&] { return gcad::save_journal_file(journal_path, journal); });
      tally.check(saved.ok());
    }
    while (!admission.empty()) {
      std::vector<gcad::PendingQuery> dequeued = spans.record(
          "gcad.admission.dequeue_batch", first,
          [&] { return admission.dequeue_batch(batch); });
      std::vector<graph::Graph> graphs;
      std::vector<std::uint32_t> expected;
      for (gcad::PendingQuery& query : dequeued) {
        expected.push_back(group_inputs[query.id - first]);
        graphs.push_back(std::move(query.graph));
      }
      const std::vector<core::QueryOutcome> outcomes = spans.record(
          "core.runner.solve_batch", first,
          [&] { return solvers.parallel.solve_batch(graphs); });
      spans.note("core.runner.solve_batch_us_per_query",
                 spans.last_us() / static_cast<double>(graphs.size()));
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        tally.check(outcomes[i].ok() &&
                    outcomes[i].result.labels == inputs[expected[i]].labels);
      }
    }
  }
  if (!p.journal.empty()) std::remove(journal_path.c_str());
}

/// Edges -> labels, replayed layer by layer.
void replay_offline(const Params& p, const std::vector<Input>& inputs,
                    double budget_s, SpanLog& spans, Solvers& solvers,
                    Tally& tally) {
  SplitMix64 sequence = request_sequence(p);
  const std::int64_t start = now_ns();
  for (std::uint64_t id = 1; id <= 3 || seconds_since(start) < budget_s; ++id) {
    const Input& input = inputs[sequence.below(inputs.size())];
    const CsrGraph csr = spans.record("graph.csr_from_edges", id, [&] {
      return CsrGraph::from_edges(p.n, input.edges);
    });
    solver_layers(csr, input, id, solvers, spans, tally);
  }
}

/// `ThreadPool::run` of a no-op at the workload's lanes: the fixed price of
/// one parallel dispatch.
void pool_dispatch(unsigned lanes, SpanLog& spans) {
  const std::shared_ptr<gca::ThreadPool> pool = gca::ThreadPool::shared(lanes);
  auto noop = [](unsigned) {};
  for (std::uint64_t i = 0; i < 2000; ++i) {
    spans.record("gca.pool.dispatch", 0, [&] { pool->run(lanes, noop); });
  }
}

// --- the two halves ------------------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;  ///< the end-to-end metric and workload it should move
};

// clang-format off
constexpr LayerMetric kLayerMetrics[] = {
  {"gcad.protocol.parse_json_us", "us", "throughput_qps, latency_p50_ms on svc-n4000; none on offline-1m"},
  {"gcad.protocol.parse_request_us", "us", "throughput_qps, latency_p50_ms on svc-n4000; none on offline-1m"},
  {"gcad.protocol.graph_build_us", "us", "throughput_qps, latency_p50_ms on svc-n4000; none on offline-1m"},
  {"gcad.protocol.encode_done_us", "us", "throughput_qps, latency_p50_ms on svc-n4000; none on offline-1m"},
  {"gcad.protocol.request_bytes", "B", "throughput_qps on svc-n4000 (bytes parsed per query)"},
  {"gcad.intake_ms_p50", "ms", "throughput_qps, latency_p50_ms on svc-n4000"},
  {"graph.dense_copy_us", "us", "throughput_qps, peak_rss_mb on svc-n4000"},
  {"graph.dense_bytes", "B", "peak_rss_mb, throughput_qps on svc-n4000"},
  {"graph.csr_from_graph_us", "us", "throughput_qps on svc-n4000"},
  {"gcad.journal.serialize_us", "us", "throughput_qps of a journal-on gcad at svc-n48's queue depth (no measured workload writes); none on svc-n4000"},
  {"gcad.journal.save_us", "us", "throughput_qps of a journal-on gcad at svc-n48's queue depth (no measured workload writes); none on svc-n4000"},
  {"gcad.journal.bytes_per_write", "B", "throughput_qps of a journal-on gcad at svc-n48's queue depth"},
  {"gcad.journal_writes_per_query", "1/query", "throughput_qps of a journal-on gcad on svc-n48's requests"},
  {"gcad.admission.admit_us", "us", "latency_p50_ms on svc-n48"},
  {"gcad.admission.dequeue_batch_us", "us", "latency_p50_ms on svc-n48"},
  {"gcad.batch_size_mean", "query/batch", "latency_p50_ms, throughput_qps on svc-n48"},
  {"gcad.service_ms_p50", "ms", "latency_p50_ms on svc-n48"},
  {"core.runner.solve_batch_us_per_query", "us", "latency_p50_ms on svc-n48"},
  {"gca.pool.dispatch_us", "us", "latency_p50_ms on svc-n48"},
  {"graph.csr_from_edges_ms", "ms", "latency_p50_ms, throughput_qps on offline-1m"},
  {"core.solver.solve_ms", "ms", "latency_p50_ms, throughput_qps on offline-1m; <2% of svc-n4000"},
  {"core.solver.seq_ms", "ms", "latency_p50_ms on offline-1m at 1 lane"},
  {"core.solver.rounds", "count", "latency_p50_ms on offline-1m"},
  {"core.solver.hook_ms", "ms", "latency_p50_ms on offline-1m"},
  {"core.solver.jump_ms", "ms", "latency_p50_ms on offline-1m"},
  {"core.solver.ns_per_arc", "ns", "throughput_qps on offline-1m"},
  {"core.solver.lane_utilisation", "frac", "throughput_qps on offline-1m"},
  {"graph.union_find_ms", "ms", "baseline for offline-1m, not a target"},
  {"trace.overhead_frac", "frac", "none (tracing cost)"},
};
// clang-format on

void report_header(const Params& p) {
  std::printf("# perfbench %s n=%u m=%zu pool=%zu inflight=%u lanes=%u seed=%llu\n",
              p.mode.c_str(), p.n, p.m, p.pool, p.inflight, p.lanes,
              static_cast<unsigned long long>(p.seed));
}

void measured(const Params& p, const std::vector<Input>& inputs) {
  Tally tally;
  std::vector<Metric> metrics;
  if (p.mode == "svc") {
    const ServiceResult r = run_service(p, false, inputs, p.seconds, 8, tally);
    const double samples = static_cast<double>(r.latency_ms.size());
    metrics = {
        {"throughput_qps", median(r.session_qps), "1/s"},
        {"latency_p50_ms", median(r.latency_ms), "ms"},
        {"setup_s", median(r.setup_s), "s"},
        // A session's peak jumps by one dense graph (16 MB at n = 4000)
        // whenever two requests happen to overlap in the worker; the lowest
        // peak over the sessions is the footprint every session needed.
        {"peak_rss_mb", *std::min_element(r.peak_rss_mb.begin(), r.peak_rss_mb.end()), "MB"},
    };
    // p99 is reported only when at least ten samples lie beyond it.
    if (samples >= 1000) {
      std::printf("latency_p99_ms %s ms (%zu samples)\n",
                  number(percentile(r.latency_ms, 0.99)).c_str(),
                  r.latency_ms.size());
    } else {
      std::printf("latency_p99_ms n/a (%zu samples, fewer than 10 beyond p99)\n",
                  r.latency_ms.size());
    }
  } else {
    std::vector<double> setup_s;
    std::unique_ptr<core::Runner> runner;
    const std::vector<Edge> tiny = {{0, 1}, {1, 2}, {3, 4}};
    for (int i = 0; i < 41; ++i) {
      runner.reset();
      const std::int64_t start = now_ns();
      runner = std::make_unique<core::Runner>(Solvers::options(p.lanes, nullptr));
      const core::QueryOutcome warm = runner->try_solve(CsrGraph::from_edges(8, tiny));
      setup_s.push_back(seconds_since(start));
      tally.check(warm.ok() && warm.result.labels == oracle_labels(8, tiny));
    }
    SplitMix64 sequence = request_sequence(p);
    const auto call = [&] {
      const Input& input = inputs[sequence.below(inputs.size())];
      const std::int64_t start = now_ns();
      const CsrGraph csr = CsrGraph::from_edges(p.n, input.edges);
      const core::QueryOutcome outcome = runner->try_solve(csr);
      const double ms = static_cast<double>(now_ns() - start) * 1e-6;
      tally.check(outcome.ok() && outcome.result.labels == input.labels);
      return ms;
    };
    call();  // warm-up, not timed
    // Five equal segments, as the svc loop's sessions: the median of their
    // rates shrugs off one segment that the machine slowed down.
    constexpr int kSegments = 5;
    std::vector<double> latency_ms;
    std::vector<double> segment_qps;
    for (int segment = 0; segment < kSegments; ++segment) {
      const std::int64_t start = now_ns();
      double busy_ms = 0;
      int calls = 0;
      for (; calls < 2 || seconds_since(start) < p.seconds / kSegments; ++calls) {
        latency_ms.push_back(call());
        busy_ms += latency_ms.back();
      }
      segment_qps.push_back(1e3 * calls / busy_ms);
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"throughput_qps", median(segment_qps), "1/s"},
        {"latency_p50_ms", median(latency_ms), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
    };
    std::printf("latency_p99_ms n/a (offline: %zu samples)\n", latency_ms.size());
  }
  std::printf("failed_frac %s (%llu of %llu attempted)\n",
              number(static_cast<double>(tally.failed) /
                     static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const Metric& m : metrics) {
    std::printf("%-16s %s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
  }
  print_result(tally, metrics);
}

void traced(const Params& p, const std::vector<Input>& inputs) {
  Tally tally;
  SpanLog spans;
  Solvers solvers(p.lanes);
  std::map<std::string, double> v;

  if (p.mode == "svc") {
    // The untraced half: the service loop's reply stream and `stats`.
    const bool journal_layer = !p.journal.empty();
    const double loop_s = p.seconds / (journal_layer ? 4 : 2);
    const ServiceResult r = run_service(p, false, inputs, loop_s, 1, tally);
    const double batch_mean = static_cast<double>(r.counted.completed_ok) /
                              static_cast<double>(std::max<std::uint64_t>(1, r.counted.batches));
    v["gcad.intake_ms_p50"] = median(r.intake_ms);
    v["gcad.service_ms_p50"] = median(r.service_ms);
    v["gcad.batch_size_mean"] = batch_mean;
    if (journal_layer) {
      const ServiceResult j = run_service(p, true, inputs, loop_s, 1, tally);
      v["gcad.journal_writes_per_query"] =
          static_cast<double>(j.counted.journal_writes) /
          static_cast<double>(std::max<std::uint64_t>(1, j.counted.completed_ok));
    }

    const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(batch_mean)));
    replay_service(p, inputs, p.seconds / 2, batch, spans, solvers, tally);
  } else {
    replay_offline(p, inputs, p.seconds, spans, solvers, tally);
  }
  pool_dispatch(p.lanes, spans);

  const double solve_ms = spans.median_us("core.solver.solve") * 1e-3;
  const double seq_ms = spans.median_us("core.solver.seq") * 1e-3;
  v["core.solver.ns_per_arc"] = solve_ms * 1e6 / spans.median_note("arcs");
  // The sparse solver records no per-lane timings, so utilisation is taken
  // from outside as parallel efficiency: one-lane time over lanes x time.
  v["core.solver.lane_utilisation"] = seq_ms / (p.lanes * solve_ms);
  v["trace.overhead_frac"] =
      spans.median_us("core.solver.solve_traced") * 1e-3 / solve_ms - 1.0;

  if (!p.trace_out.empty()) spans.write(p.trace_out);

  // A metric is a figure derived above, else a note's median, else the
  // median of the spans named like it without the _us / _ms suffix.
  const auto value_of = [&](const std::string& name) {
    if (const auto found = v.find(name); found != v.end()) return found->second;
    if (spans.has_note(name)) return spans.median_note(name);
    const double us = spans.median_us(name.substr(0, name.size() - 3));
    return name.ends_with("_ms") ? us * 1e-3 : us;
  };
  std::vector<Metric> metrics;
  for (const LayerMetric& layer : kLayerMetrics) {
    const double value = value_of(layer.name);
    metrics.push_back({layer.name, value, layer.unit});
    std::printf("%-38s %-12s %-11s -> %s\n", layer.name, number(value).c_str(),
                layer.unit, layer.moves);
  }
  print_result(tally, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    die(std::string("refusing to measure a ") + PERFBENCH_BUILD_TYPE +
        " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  if (argc < 2) die("usage: perfbench_driver svc|offline --key value ...");
  signal(SIGPIPE, SIG_IGN);  // a dead gcad must surface as a write error

  const Args args = Args::parse(argc, argv);
  Params p;
  p.mode = argv[1];
  if (p.mode != "svc" && p.mode != "offline") die("unknown mode " + p.mode);
  p.n = static_cast<NodeId>(args.count("n", 0));
  p.m = args.count("m", 0);
  p.pool = args.count("pool", 1);
  p.inflight = static_cast<unsigned>(args.count("inflight", 1));
  p.clients = static_cast<unsigned>(args.count("clients", 1));
  p.lanes = static_cast<unsigned>(args.count("lanes", 1));
  p.seconds = static_cast<double>(args.count("seconds", 1));
  p.seed = args.count("seed", 1);
  p.gcad = args.text("gcad", "");
  p.journal = args.text("journal", "");
  p.trace_out = args.text("trace-out", "");
  const bool trace = args.count("trace", 0) != 0;
  if (p.n < 2 || p.m == 0 || p.pool == 0 || p.inflight == 0 || p.clients == 0 ||
      p.lanes == 0 || p.seconds <= 0) {
    die("n >= 2, m, pool, inflight, clients, lanes and seconds must be positive");
  }
  if (p.mode == "svc" && p.gcad.empty()) die("svc needs --gcad");

  std::printf("# build %s, compiler %s\n", PERFBENCH_BUILD_TYPE, __VERSION__);
  report_header(p);
  const std::vector<Input> inputs =
      make_pool(p.n, p.m, p.pool, p.mode == "svc", p.seed);
  if (trace) {
    traced(p, inputs);
  } else {
    measured(p, inputs);
  }
  return 0;
}
