// gcad — the always-on connected-components daemon.
//
// Reads line-delimited JSON requests on stdin (in 64 KiB blocks; a line
// longer than the 1 MiB request cap costs one error reply and bounded
// memory), writes one JSON reply per line on stdout (protocol:
// src/gcad/protocol.hpp).  SIGTERM triggers a graceful drain: intake
// stops, queued work finishes within the drain budget, and anything left
// is checkpointed in the queue journal for the next incarnation.  A
// `kill -9` loses nothing either — accepted queries are journaled before
// they are acknowledged.
//
//   $ ./gcad --threads 4 --journal /tmp/gcad.gcqj &
//   $ echo '{"id":1,"op":"solve","n":4,"edges":[[0,1],[2,3]]}' > /proc/$!/fd/0
//
// Options: --threads N (solve lanes), --retries N (default 1),
// --retry-backoff-ms N, --checkpoint-dir DIR, --queue-cap N,
// --max-batch N, --journal FILE, --fault-rate R, --fault-seed S,
// --drain-timeout-ms N, --quiet.  gcad accepts no flag it would ignore:
// every query runs on the CSR engine (DESIGN.md §12), so the dense
// field's knobs (--sweep, --record-access) and the engine flags it has
// no use for (--sparse-mode, --no-instrumentation,
// --trace-out, --metrics-out, --deadline-ms; deadlines are per request)
// are unknown options.
//
// Exit status: 0 clean drain, 1 drain timeout left journaled work behind,
// 2 invalid option value, 64 unknown option.
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <streambuf>
#include <string>

#include "common/cli.hpp"
#include "gca/metrics.hpp"
#include "gcad/server.hpp"

namespace {

gcalib::gcad::Server* g_server = nullptr;
/// Set by the handler, read by the intake thread (the signal may land on
/// any thread); lock-free, so async-signal-safe.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

extern "C" void on_sigterm(int) {
  g_stop.store(true, std::memory_order_release);
  if (g_server != nullptr) g_server->request_stop();
}

/// Standard input as a stream buffer: one read(2) per 64 KiB block instead
/// of a locked getc per byte.  A read interrupted by a signal is retried,
/// unless a stop was requested: then it ends the input, so SIGTERM and
/// SIGINT drain an idle daemon at once.  (Unsynced std::cin would not:
/// libstdc++ retries EINTR there, and the daemon waits for a line.)
class StdinBuffer : public std::streambuf {
 public:
  StdinBuffer() : block_(new char[kBlockBytes]) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    for (;;) {
      const ssize_t got = ::read(STDIN_FILENO, block_.get(), kBlockBytes);
      if (got > 0) {
        setg(block_.get(), block_.get(), block_.get() + got);
        return traits_type::to_int_type(*gptr());
      }
      if (got == 0 || errno != EINTR ||
          g_stop.load(std::memory_order_acquire)) {
        return traits_type::eof();
      }
    }
  }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;
  std::unique_ptr<char[]> block_;  ///< uninitialised: read(2) fills it
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gcalib;
  // Exactly the flags gcad reads: naming any other is a usage error
  // (exit 64), never a silent no-op.
  const std::map<std::string, bool> spec = {{"threads", true},
                                            {"retries", true},
                                            {"retry-backoff-ms", true},
                                            {"checkpoint-dir", true},
                                            {"queue-cap", true},
                                            {"max-batch", true},
                                            {"journal", true},
                                            {"fault-rate", true},
                                            {"fault-seed", true},
                                            {"drain-timeout-ms", true},
                                            {"quiet", false}};
  const CliArgs args = CliArgs::parse_or_exit(argc, argv, spec);

  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "error: %s\n", what);
      std::exit(2);
    }
  };
  // The shared engine-flag reader checks --threads >= 1 and the --retries
  // range, the same as in every other tool.
  cli::EngineFlags flags;
  std::int64_t retry_backoff_ms = 0;
  try {
    flags = cli::engine_flags(args);
    retry_backoff_ms = args.get_int("retry-backoff-ms", 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  require(retry_backoff_ms >= 0, "--retry-backoff-ms must be >= 0");

  gcad::ServerOptions options;
  options.threads = flags.threads;
  // The daemon's default stays one retry (resilience posture), but an
  // explicit --retries on the command line wins.
  options.retries = args.has("retries") ? flags.retries : 1u;
  options.retry_backoff_ms = retry_backoff_ms;
  // Two durability layers compose: the queue journal (--journal) replays
  // accepted-but-unfinished *queries*, and --checkpoint-dir resumes each
  // replayed query's *solve* mid-lattice from its per-query GSKP artifact
  // (DESIGN.md §15).
  options.checkpoint_dir = flags.checkpoint_dir;
  require(args.get_int("queue-cap", 256) >= 1, "--queue-cap must be >= 1");
  options.admission.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-cap", 256));
  require(args.get_int("max-batch", 16) >= 1, "--max-batch must be >= 1");
  options.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 16));
  options.journal_path = args.get_string("journal", "");
  const double fault_rate = args.get_double("fault-rate", 0.0);
  require(fault_rate >= 0.0 && fault_rate <= 1.0,
          "--fault-rate must be in [0, 1]");
  options.fault_rate = fault_rate;
  options.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  require(args.get_int("drain-timeout-ms", 30'000) >= 0,
          "--drain-timeout-ms must be >= 0");
  options.drain_timeout_ms = args.get_int("drain-timeout-ms", 30'000);

  gcad::Server server(std::move(options));
  g_server = &server;

  // No SA_RESTART: a SIGTERM mid-read makes the blocking stdin read return
  // with EINTR, and StdinBuffer then ends the input, so the serve loop
  // notices the stop request at once instead of waiting for the next
  // complete line.
  struct sigaction action = {};
  action.sa_handler = on_sigterm;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  StdinBuffer stdin_buffer;
  std::istream in(&stdin_buffer);
  const int rc = server.serve(in, std::cout);
  g_server = nullptr;

  if (!args.has("quiet")) {
    std::fputs(gca::format_service_counters(server.counters().snapshot()).c_str(),
               stderr);
  }
  return rc;
}
