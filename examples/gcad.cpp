// gcad — the always-on connected-components daemon.
//
// Reads line-delimited JSON requests on stdin, writes one JSON reply per
// line on stdout (protocol: src/gcad/protocol.hpp).  SIGTERM triggers a
// graceful drain: intake stops, queued work finishes within the drain
// budget, and anything left is checkpointed in the queue journal for the
// next incarnation.  A `kill -9` loses nothing either — accepted queries
// are journaled before they are acknowledged.
//
//   $ ./gcad --threads 4 --journal /tmp/gcad.gcqj &
//   $ echo '{"id":1,"op":"solve","n":4,"edges":[[0,1],[2,3]]}' > /proc/$!/fd/0
//
// Every query runs on the CSR engine (DESIGN.md §12); the dense field's
// knobs (--sweep, --kernels, --record-access) are rejected as unknown
// options.
//
// Exit status: 0 clean drain, 1 drain timeout left journaled work behind,
// 2 invalid option value, 64 unknown option.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "common/cli.hpp"
#include "gca/execution.hpp"
#include "gca/metrics.hpp"
#include "gcad/server.hpp"

namespace {

gcalib::gcad::Server* g_server = nullptr;

extern "C" void on_sigterm(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcalib;
  std::map<std::string, bool> spec =
      cli::with_runner_flags({{"queue-cap", true},
                              {"max-batch", true},
                              {"journal", true},
                              {"fault-rate", true},
                              {"fault-seed", true},
                              {"drain-timeout-ms", true},
                              {"quiet", false}});
  // Naming a dense-field knob is a usage error (exit 64), not a no-op.
  for (const char* dense_only : {"sweep", "kernels", "record-access"}) {
    spec.erase(dense_only);
  }
  const CliArgs args = CliArgs::parse_or_exit(argc, argv, spec);

  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "error: %s\n", what);
      std::exit(2);
    }
  };
  cli::RunnerFlags flags;
  try {
    flags = cli::runner_flags(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // One shared validation surface with the other tools: an inconsistent
  // engine combination (--policy warp, --threads 2 --policy sequential, ...)
  // exits 2 with the same diagnosis everywhere.
  const gca::EngineOptions engine = gca::options_from_flags_or_exit(flags.engine);

  gcad::ServerOptions options;
  options.threads = engine.threads;
  options.policy = engine.policy;
  // The daemon's default stays one retry (resilience posture), but an
  // explicit --retries on the command line wins.
  options.retries =
      args.has("retries") ? flags.engine.retries : 1u;
  options.retry_backoff_ms = flags.retry_backoff_ms;
  if (flags.engine.deadline_ms != 0) {
    std::fprintf(stderr,
                 "warning: --deadline-ms is ignored by gcad; deadlines are "
                 "per request (\"deadline_ms\" in the solve op)\n");
  }
  // Two durability layers compose: the queue journal (--journal) replays
  // accepted-but-unfinished *queries*, and --checkpoint-dir resumes each
  // replayed query's *solve* mid-lattice from its per-query GSKP artifact
  // (DESIGN.md §15).
  options.checkpoint_dir = flags.engine.checkpoint_dir;
  if (flags.engine.wants_metrics()) {
    std::fprintf(stderr,
                 "warning: --trace-out/--metrics-out are ignored by gcad "
                 "(service counters go to stderr)\n");
  }
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
  // with EINTR, so the serve loop notices the stop request at once instead
  // of waiting for the next complete line.
  struct sigaction action = {};
  action.sa_handler = on_sigterm;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  const int rc = server.serve(std::cin, std::cout);
  g_server = nullptr;

  if (!args.has("quiet")) {
    std::fputs(gca::format_service_counters(server.counters().snapshot()).c_str(),
               stderr);
  }
  return rc;
}
