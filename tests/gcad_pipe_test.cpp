// The real gcad binary over pipes: what the in-process string-stream tests
// of gcad_server_test cannot see — the fd reader's SIGTERM contract, the
// memory an overlong line costs, and a full-size solve through stdin.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gcad/protocol.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "gtest/gtest.h"

namespace gcalib::gcad {
namespace {

/// A running gcad with its stdin and stdout on pipes.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> args) {
    ::signal(SIGPIPE, SIG_IGN);  // a dead daemon fails a write, not the test
    int to_child[2];
    int from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0 ||
        ::pipe2(from_child, O_CLOEXEC) != 0) {
      ADD_FAILURE() << "pipe: " << std::strerror(errno);
      return;
    }
    args.insert(args.begin(), GCAD_BINARY);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
  }

  ~Daemon() {
    close_input();
    if (out_ >= 0) ::close(out_);
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  bool write_all(const char* data, std::size_t size) {
    while (size > 0) {
      const ssize_t put = ::write(in_, data, size);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) return false;
      data += put;
      size -= static_cast<std::size_t>(put);
    }
    return true;
  }
  bool write_all(const std::string& text) {
    return write_all(text.data(), text.size());
  }

  void close_input() {
    if (in_ >= 0) ::close(in_);
    in_ = -1;
  }

  /// The next reply line (without its newline); empty at EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t newline = buffered_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffered_.substr(0, newline);
        buffered_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::read(out_, chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return std::exchange(buffered_, std::string());
      buffered_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Every remaining reply line up to EOF.
  std::vector<std::string> read_all() {
    std::vector<std::string> lines;
    for (std::string line = read_line(); !line.empty(); line = read_line()) {
      lines.push_back(std::move(line));
    }
    return lines;
  }

  /// Waits for exit; returns the wait status and fills `usage`.
  int wait(rusage* usage = nullptr) {
    int status = 0;
    rusage ignored{};
    rusage* into = usage != nullptr ? usage : &ignored;
    while (::wait4(pid_, &status, 0, into) < 0 && errno == EINTR) {
    }
    reaped_ = true;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  bool reaped_ = false;
  std::string buffered_;
};

std::string event_of(const std::string& line) {
  Json doc;
  if (!parse_json(line, doc).ok()) return "unparseable: " + line;
  const Json* event = doc.find("event");
  return event != nullptr ? event->string : "";
}

TEST(GcadPipe, IdleDaemonExitsPromptlyOnSigterm) {
  Daemon gcad({"--quiet"});
  ASSERT_GT(gcad.pid(), 0);
  // A pong proves the serve loop runs, so the handler is installed and the
  // intake thread is about to block in read(2) on an idle pipe.
  ASSERT_TRUE(gcad.write_all("{\"id\":1,\"op\":\"ping\"}\n"));
  ASSERT_EQ(event_of(gcad.read_line()), "pong");
  ::usleep(50'000);

  const auto sent = std::chrono::steady_clock::now();
  ASSERT_EQ(::kill(gcad.pid(), SIGTERM), 0);
  const int status = gcad.wait();
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - sent);
  ASSERT_TRUE(WIFEXITED(status)) << "wait status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_LT(waited.count(), 100) << "SIGTERM to exit";
}

TEST(GcadPipe, OverlongLineCostsOneErrorAndBoundedMemory) {
  // wait4's ru_maxrss also counts this process's RSS at fork (Linux keeps
  // the pre-exec high-water mark), so spawn before allocating the block.
  Daemon gcad({"--quiet"});
  ASSERT_GT(gcad.pid(), 0);
  const std::string block(std::size_t{1} << 20, 'x');
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(gcad.write_all(block)) << "daemon died at MiB " << i;
  }
  ASSERT_TRUE(gcad.write_all("\n{\"id\":2,\"op\":\"ping\"}\n"));
  gcad.close_input();

  const std::vector<std::string> replies = gcad.read_all();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(event_of(replies[0]), "error");
  EXPECT_NE(replies[0].find("line of 67108864 bytes"), std::string::npos)
      << replies[0];
  EXPECT_EQ(event_of(replies[1]), "pong");

  rusage usage{};
  const int status = gcad.wait(&usage);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // ru_maxrss is in KiB.  A sanitizer's shadow memory makes the figure
  // meaningless, so only uninstrumented builds check it.
  EXPECT_LT(usage.ru_maxrss, 16 * 1024) << "peak RSS in KiB";
#endif
}

TEST(GcadPipe, SolvesAFullSizeRequestLikeUnionFind) {
  const graph::Graph g = graph::random_gnm(4000, 8000, 29);
  std::string line = "{\"id\":7,\"op\":\"solve\",\"n\":4000,\"edges\":[";
  bool first = true;
  for (const graph::Edge& e : g.edges()) {
    if (!first) line += ',';
    first = false;
    line += '[' + std::to_string(e.v) + ',' + std::to_string(e.u) + ']';
  }
  line += "]}\n";

  Daemon gcad({"--quiet", "--threads", "2"});
  ASSERT_GT(gcad.pid(), 0);
  ASSERT_TRUE(gcad.write_all(line));
  gcad.close_input();
  const std::vector<std::string> replies = gcad.read_all();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(event_of(replies[0]), "accepted");
  Json done;
  ASSERT_TRUE(parse_json(replies[1], done).ok()) << replies[1];
  ASSERT_EQ(done.find("event")->string, "done");
  ASSERT_EQ(done.find("status")->string, "OK") << replies[1];
  const std::vector<graph::NodeId> want = graph::union_find_components(g);
  const Json* labels = done.find("labels");
  ASSERT_NE(labels, nullptr);
  ASSERT_EQ(labels->array.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(labels->array[v].integer, static_cast<std::int64_t>(want[v]))
        << "vertex " << v;
  }
  const int status = gcad.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace gcalib::gcad
