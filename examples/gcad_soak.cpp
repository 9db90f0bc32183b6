// gcad_soak — fault-injected soak driver and zero-loss auditor for gcad.
//
// Forks the daemon with pipes on stdin/stdout, pushes a saturating stream
// of solve requests (mixed sizes, priorities, deadlines and client names),
// optionally SIGKILLs it mid-load and restarts it on the same journal, then
// closes stdin (EOF -> graceful drain) and audits the reply stream:
//
//   1. zero loss — every query acknowledged as accepted has at least one
//      terminal reply (done or shed), across the kill if one was injected;
//   2. correctness — every OK labeling is bit-identical to an offline
//      union-find solve of the same graph (at-least-once delivery may
//      duplicate a terminal reply after a crash; duplicates must agree);
//   3. liveness — both daemon incarnations exit on their own after EOF.
//
//   $ ./gcad_soak --gcad ./gcad --queries 200 --kill --fault-rate 0.5
//   $ ./gcad_soak --gcad ./gcad --queries 200 --kill --fault-rate 0.5
//       --checkpoint-dir /tmp/soak_ckpt  # + mid-solve GSKP resume
//
// Exit status: 0 all audits pass, 1 an audit failed, 64 usage error.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "gcad/protocol.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"

namespace {

using namespace gcalib;

struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< write requests here
  int stdout_fd = -1;  ///< read replies here
};

/// fork/exec the daemon with pipes on both ends; stderr passes through.
Child spawn_gcad(const std::string& binary,
                 const std::vector<std::string>& extra_args) {
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : extra_args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    std::perror("execv");
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  Child child;
  child.pid = pid;
  child.stdin_fd = to_child[1];
  child.stdout_fd = from_child[0];
  return child;
}

/// Reads the child's stdout until EOF, appending whole lines to `lines`
/// (under `mutex` — the main thread polls the count to time the SIGKILL).
void read_replies(int fd, std::mutex& mutex, std::vector<std::string>& lines) {
  std::string pending;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t got = read(fd, buffer, sizeof buffer);
    if (got <= 0) break;
    pending.append(buffer, static_cast<std::size_t>(got));
    std::size_t start = 0;
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = pending.find('\n'); i != std::string::npos;
         i = pending.find('\n', start)) {
      lines.push_back(pending.substr(start, i - start));
      start = i + 1;
    }
    pending.erase(0, start);
  }
  if (!pending.empty()) {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(pending);
  }
}

bool write_all(int fd, const std::string& line) {
  std::size_t done = 0;
  while (done < line.size()) {
    const ssize_t put = write(fd, line.data() + done, line.size() - done);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;  // daemon died (EPIPE under the kill scenario)
    }
    done += static_cast<std::size_t>(put);
  }
  return true;
}

std::string encode_solve(std::uint64_t id, const graph::Graph& g,
                         std::int64_t deadline_ms, int priority,
                         const std::string& client) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"op\":\"solve\",\"n\":" +
                     std::to_string(g.node_count()) + ",\"edges\":[";
  bool first = true;
  for (const graph::Edge& edge : g.edges()) {
    if (!first) line += ',';
    first = false;
    line += '[' + std::to_string(edge.u) + ',' + std::to_string(edge.v) + ']';
  }
  line += "]";
  if (deadline_ms > 0) line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  line += ",\"priority\":" + std::to_string(priority);
  line += ",\"client\":\"" + client + "\"}";
  return line;
}

struct Audit {
  std::set<std::uint64_t> accepted;
  std::map<std::uint64_t, std::vector<std::int64_t>> ok_labels;
  std::set<std::uint64_t> terminal;
  std::size_t parse_failures = 0;
  std::size_t done_ok = 0;
  std::size_t done_error = 0;
  std::size_t rejected = 0;
};

void absorb_replies(const std::vector<std::string>& lines, Audit& audit) {
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    gcad::Json doc;
    if (!gcad::parse_json(line, doc).ok() ||
        doc.type != gcad::Json::Type::kObject) {
      ++audit.parse_failures;
      continue;
    }
    const gcad::Json* event = doc.find("event");
    const gcad::Json* id_field = doc.find("id");
    if (event == nullptr || event->type != gcad::Json::Type::kString) continue;
    const std::optional<std::uint64_t> id =
        (id_field != nullptr && id_field->is_integer && id_field->integer >= 0)
            ? std::optional<std::uint64_t>(
                  static_cast<std::uint64_t>(id_field->integer))
            : std::nullopt;
    if (event->string == "accepted" && id) {
      audit.accepted.insert(*id);
    } else if (event->string == "rejected" && id) {
      ++audit.rejected;
      audit.terminal.insert(*id);
    } else if (event->string == "shed" && id) {
      audit.terminal.insert(*id);
    } else if (event->string == "done" && id) {
      audit.terminal.insert(*id);
      const gcad::Json* status = doc.find("status");
      if (status != nullptr && status->string == "OK") {
        ++audit.done_ok;
        std::vector<std::int64_t> labels;
        const gcad::Json* label_field = doc.find("labels");
        if (label_field != nullptr &&
            label_field->type == gcad::Json::Type::kArray) {
          for (const gcad::Json& item : label_field->array) {
            labels.push_back(item.integer);
          }
        }
        auto [it, inserted] = audit.ok_labels.emplace(*id, labels);
        if (!inserted && it->second != labels) {
          // Duplicate terminal replies must agree bit-for-bit.
          std::fprintf(stderr,
                       "AUDIT: duplicate OK replies for id %llu disagree\n",
                       static_cast<unsigned long long>(*id));
          it->second.clear();  // force the label comparison to fail below
        }
      } else {
        ++audit.done_error;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A write racing the SIGKILL must come back as EPIPE, not kill the auditor.
  signal(SIGPIPE, SIG_IGN);
  const CliArgs args = CliArgs::parse_or_exit(
      argc, argv,
      {{"gcad", true},
       {"queries", true},
       {"threads", true},
       {"queue-cap", true},
       {"seed", true},
       {"fault-rate", true},
       {"journal", true},
       {"checkpoint-dir", true},
       {"kill", false},
       {"verbose", false}});

  const std::string binary = args.get_string("gcad", "./gcad");
  const auto queries = static_cast<std::size_t>(args.get_int("queries", 200));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double fault_rate = args.get_double("fault-rate", 0.0);
  const bool inject_kill = args.has("kill");
  const std::string journal = args.get_string(
      "journal", "gcad_soak_" + std::to_string(getpid()) + ".gcqj");

  std::vector<std::string> daemon_args = {
      "--threads", args.get_string("threads", "2"),
      "--queue-cap", args.get_string("queue-cap", "512"),
      "--journal", journal,
      "--retries", "2",
      "--quiet"};
  if (fault_rate > 0.0) {
    daemon_args.push_back("--fault-rate");
    daemon_args.push_back(args.get_string("fault-rate", "0"));
  }
  // --checkpoint-dir adds durable per-query GSKP artifacts, so the SIGKILL
  // scenario also exercises mid-solve resume, not just journal replay.
  if (args.has("checkpoint-dir")) {
    daemon_args.push_back("--checkpoint-dir");
    daemon_args.push_back(args.get_string("checkpoint-dir", ""));
  }

  // Offline ground truth: the workload and its expected labelings.
  std::vector<graph::Graph> workload;
  std::vector<std::vector<graph::NodeId>> expected;
  workload.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    const auto n = static_cast<graph::NodeId>(8 + (seed + i * 13) % 56);
    graph::Graph g = (i % 3 == 0)
                         ? graph::random_gnp(n, 0.08, seed + i)
                         : graph::random_gnm(n, n / 2, seed * 31 + i);
    expected.push_back(graph::union_find_components(g));
    workload.push_back(std::move(g));
  }

  Audit audit;
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  Child child = spawn_gcad(binary, daemon_args);
  std::thread reader(
      [&] { read_replies(child.stdout_fd, lines_mutex, lines); });

  const std::size_t kill_at = inject_kill ? queries / 2 : queries + 1;
  bool killed = false;
  for (std::size_t i = 0; i < queries; ++i) {
    if (i == kill_at) {
      // Make the kill land on a daemon that has genuinely accepted work:
      // wait (bounded) until some acks came back, so the journal is
      // non-trivial and the restart actually replays queries.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(lines_mutex);
          if (lines.size() >= kill_at / 4) break;
        }
        if (std::chrono::steady_clock::now() >= give_up) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      // SIGKILL mid-load: no drain, no cleanup — the journal is all that
      // survives.  Restart on the same journal and keep loading.
      kill(child.pid, SIGKILL);
      int status = 0;
      waitpid(child.pid, &status, 0);
      close(child.stdin_fd);
      reader.join();
      close(child.stdout_fd);
      absorb_replies(lines, audit);
      lines.clear();
      killed = true;
      child = spawn_gcad(binary, daemon_args);
      reader = std::thread(
          [&] { read_replies(child.stdout_fd, lines_mutex, lines); });
    }
    // Mixed traffic: four clients, all priority bands, a few tight
    // deadlines that will legitimately expire under saturation.
    const int priority = static_cast<int>(i % 4);
    const std::string client = "client" + std::to_string(i % 4);
    const std::int64_t deadline_ms = (i % 11 == 0) ? 40 : 0;
    const std::string line =
        encode_solve(i + 1, workload[i], deadline_ms, priority, client) + "\n";
    if (!write_all(child.stdin_fd, line)) {
      if (!inject_kill) {
        std::fprintf(stderr, "AUDIT: daemon pipe closed unexpectedly\n");
        return 1;
      }
    }
  }

  close(child.stdin_fd);  // EOF -> graceful drain
  reader.join();
  close(child.stdout_fd);
  int status = 0;
  waitpid(child.pid, &status, 0);
  absorb_replies(lines, audit);
  std::remove(journal.c_str());
  std::remove((journal + ".tmp").c_str());

  if (!WIFEXITED(status)) {
    std::fprintf(stderr, "AUDIT: daemon did not exit cleanly after drain\n");
    return 1;
  }

  // Audit 1: zero loss — accepted implies terminal.
  std::size_t lost = 0;
  for (const std::uint64_t id : audit.accepted) {
    if (audit.terminal.count(id) == 0) {
      std::fprintf(stderr, "AUDIT: accepted id %llu has no terminal reply\n",
                   static_cast<unsigned long long>(id));
      ++lost;
    }
  }

  // Audit 2: every OK labeling matches the offline union-find solve.
  std::size_t wrong = 0;
  for (const auto& [id, labels] : audit.ok_labels) {
    const std::vector<graph::NodeId>& want = expected[id - 1];
    bool match = labels.size() == want.size();
    for (std::size_t v = 0; match && v < want.size(); ++v) {
      match = labels[v] == static_cast<std::int64_t>(want[v]);
    }
    if (!match) {
      std::fprintf(stderr, "AUDIT: wrong labeling for id %llu\n",
                   static_cast<unsigned long long>(id));
      ++wrong;
    }
  }

  std::printf(
      "gcad_soak: %zu queries (%s%s), %zu accepted, %zu done OK, "
      "%zu done error, %zu rejected, %zu parse failures\n",
      queries, killed ? "SIGKILL injected" : "no kill",
      fault_rate > 0 ? ", faults injected" : "", audit.accepted.size(),
      audit.done_ok, audit.done_error, audit.rejected, audit.parse_failures);

  if (lost > 0 || wrong > 0 || audit.parse_failures > 0) {
    std::fprintf(stderr, "gcad_soak: FAILED (%zu lost, %zu wrong, %zu unparseable)\n",
                 lost, wrong, audit.parse_failures);
    return 1;
  }
  std::puts("gcad_soak: PASS (zero accepted-query loss, all labelings exact)");
  return 0;
}
