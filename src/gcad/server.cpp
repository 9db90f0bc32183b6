#include "gcad/server.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>

#include "common/assert.hpp"
#include "core/hirschberg_gca.hpp"
#include "fault/sparse_fault.hpp"

namespace gcalib::gcad {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] Status oversized_line(std::size_t bytes) {
  return Status::error(StatusCode::kInvalidArgument,
                       "request: line of " + std::to_string(bytes) +
                           " bytes exceeds the " +
                           std::to_string(kMaxRequestBytes) + "-byte limit");
}

[[nodiscard]] std::int64_t ms_since(Clock::time_point instant) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               instant)
      .count();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      admission_([&] {
        AdmissionConfig config = options_.admission;
        config.workers = std::max(1u, options_.threads);
        return config;
      }(), &model_) {
  GCALIB_EXPECTS_MSG(options_.threads >= 1, "gcad: threads must be >= 1");
  // The admission estimator prices cold queries against the parallel
  // CAS-min path this many lanes buy (gcad/latency.hpp).
  model_.set_solver_threads(options_.threads);
  GCALIB_EXPECTS_MSG(options_.max_batch >= 1, "gcad: max_batch must be >= 1");
  GCALIB_EXPECTS_MSG(options_.fault_rate >= 0.0,
                     "gcad: fault_rate must be >= 0");
  GCALIB_EXPECTS_MSG(options_.drain_timeout_ms >= 0,
                     "gcad: drain_timeout_ms must be >= 0");

  core::RunnerOptions runner;
  runner.threads = options_.threads;
  runner.instrument = false;
  runner.sink = options_.sink;
  runner.retries = options_.retries;
  runner.retry_backoff_ms = options_.retry_backoff_ms;
  runner.cancel = &hard_stop_;
  runner.configure_query = [this](std::size_t index, core::RunOptions& run) {
    configure_query(index, run);
  };
  runner_ = std::make_unique<core::Runner>(std::move(runner));
}

Server::~Server() = default;

void Server::emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(out_mutex_);
  if (out_ == nullptr) return;
  *out_ << line << '\n';
  out_->flush();
}

void Server::configure_query(std::size_t index, core::RunOptions& run) const {
  const BatchContext* ctx = current_batch_.load(std::memory_order_acquire);
  if (ctx == nullptr || index >= ctx->deadlines_ms.size()) return;
  run.deadline_ms = ctx->deadlines_ms[index];
  if (!options_.checkpoint_dir.empty()) {
    // One subdirectory per query id: batch siblings solve concurrently and
    // must never race on a shared artifact file.  The solve writes its GSKP
    // artifact there and resumes from it on replay.
    run.checkpoint_dir =
        options_.checkpoint_dir + "/q" + std::to_string(ctx->ids[index]);
  }
  if (options_.fault_rate > 0.0) {
    // Transient-fault soak mode: the first attempt of each query runs
    // under an injected fault plan with checking on, so corruption is
    // *detected* (never mislabelled); retries re-execute clean, which is
    // exactly how transient upsets recover.
    run.self_check = true;
    run.certify = true;
    const unsigned attempt =
        ctx->attempts[index].fetch_add(1, std::memory_order_relaxed) + 1;
    if (attempt == 1) {
      auto injector = std::make_shared<fault::SparseInjector>(
          fault::SparseFaultPlan::poisson(ctx->sizes[index],
                                          options_.fault_rate,
                                          ctx->fault_seeds[index]));
      injector->install(run);  // chains hooks, forces sparse_monitors
      // `install` captures the raw injector; parking the shared_ptr in a
      // hook wrapper ties its lifetime to the RunOptions copy the run
      // holds.
      auto previous_after = run.sparse_after_round;
      run.sparse_after_round =
          [injector, previous_after](const core::SparseRoundContext& round) {
            if (previous_after) previous_after(round);
          };
    }
  }
}

// --- journal bookkeeping (all under queue_mutex_) -------------------------

void Server::journal_rewrite_locked() {
  if (options_.journal_path.empty()) return;
  std::vector<JournalEntry> entries;
  entries.reserve(journaled_.size());
  for (const LiveEntry& live : journaled_) {
    JournalEntry entry = live.entry;
    if (entry.deadline_ms > 0) {
      // Persist the *remaining* budget: the deadline clock stops while the
      // daemon is down and resumes on replay.  Clamped to 1 ms so an
      // already-expired entry replays into an immediate, precise
      // kDeadlineExceeded reply instead of silently vanishing.
      entry.deadline_ms =
          std::max<std::int64_t>(1, entry.deadline_ms - ms_since(live.admitted_at));
    }
    entries.push_back(std::move(entry));
  }
  const Status saved = save_journal_file(options_.journal_path, entries);
  counters_.journal_writes.fetch_add(1, std::memory_order_relaxed);
  if (!saved.ok()) {
    emit(encode_error(std::nullopt, saved));
  }
}

void Server::journal_add_locked(PendingQuery query) {
  if (options_.journal_path.empty()) return;
  LiveEntry live;
  live.entry.id = query.id;
  live.entry.priority = query.priority;
  live.entry.deadline_ms = query.deadline_ms;
  live.entry.client = std::move(query.client);
  live.entry.graph = std::move(query.graph);
  live.admitted_at = query.admitted_at;
  journaled_.push_back(std::move(live));
  journal_rewrite_locked();
}

void Server::journal_remove_locked(const std::vector<std::uint64_t>& ids) {
  if (options_.journal_path.empty() || ids.empty()) return;
  const auto is_removed = [&](const LiveEntry& live) {
    return std::find(ids.begin(), ids.end(), live.entry.id) != ids.end();
  };
  const auto end =
      std::remove_if(journaled_.begin(), journaled_.end(), is_removed);
  if (end == journaled_.end()) return;
  journaled_.erase(end, journaled_.end());
  journal_rewrite_locked();
}

void Server::replay_journal() {
  if (options_.journal_path.empty()) return;
  std::vector<JournalEntry> entries;
  const Status loaded = load_journal_file(options_.journal_path, entries);
  if (loaded.code == StatusCode::kNotFound) return;
  if (!loaded.ok()) {
    // A torn journal is reported loudly but does not stop the daemon:
    // serving new traffic beats dying over unrecoverable history.
    emit(encode_error(std::nullopt, loaded));
    return;
  }
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (JournalEntry& entry : entries) {
    PendingQuery query;
    query.id = entry.id;
    query.graph = entry.graph;
    query.deadline_ms = entry.deadline_ms;
    query.admitted_at = Clock::now();
    query.priority = entry.priority;
    query.client = entry.client;
    query.restored = true;
    AdmissionVerdict verdict = admission_.admit(std::move(query),
                                                /*draining=*/false);
    for (PendingQuery& evicted : verdict.evicted) {
      // Cannot happen in practice (the journal is bounded by the same
      // queue the last incarnation ran), but the contract holds anyway:
      // an evicted accepted query gets an explicit shed reply.
      emit(encode_rejected(evicted.id,
                           Status::error(StatusCode::kResourceExhausted,
                                         "evicted during journal replay"),
                           /*after_accept=*/true));
      counters_.shed_overload.fetch_add(1, std::memory_order_relaxed);
    }
    if (verdict.status.ok()) {
      LiveEntry live;
      live.entry = std::move(entry);
      live.admitted_at = Clock::now();
      journaled_.push_back(std::move(live));
      counters_.restored.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The replayed query cannot be served (e.g. its remaining budget is
      // provably too small).  It was accepted once, so it is shed loudly,
      // never dropped.
      emit(encode_rejected(entry.id, verdict.status, /*after_accept=*/true));
      counters_.shed_overload.fetch_add(1, std::memory_order_relaxed);
    }
  }
  journal_rewrite_locked();
  update_overload_locked();
  queue_cv_.notify_all();
}

void Server::update_overload_locked() {
  const OverloadLevel level = admission_.level();
  if (level == last_level_) return;
  last_level_ = level;
  counters_.overload_level.store(static_cast<std::uint64_t>(level),
                                 std::memory_order_relaxed);
  const std::uint64_t transitions =
      counters_.overload_transitions.fetch_add(1, std::memory_order_relaxed) +
      1;
  if (options_.announce_overload) {
    emit(encode_overload(static_cast<unsigned>(level), transitions));
  }
}

// --- intake ---------------------------------------------------------------

void Server::handle_solve(Request&& request) {
  PendingQuery query;
  query.id = request.id;
  query.graph = std::move(request.graph);
  query.deadline_ms = request.deadline_ms;
  query.admitted_at = Clock::now();
  query.priority = request.priority;
  query.client = std::move(request.client);

  std::vector<std::string> replies;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    const std::uint64_t id = query.id;
    // Copy kept for the write-ahead journal entry (admit consumes `query`);
    // without a journal there is nothing to keep.
    std::optional<PendingQuery> journal_copy;
    if (!options_.journal_path.empty()) journal_copy = query;
    AdmissionVerdict verdict = admission_.admit(std::move(query), draining_);
    std::vector<std::uint64_t> evicted_ids;
    for (PendingQuery& evicted : verdict.evicted) {
      replies.push_back(encode_rejected(
          evicted.id,
          Status::error(StatusCode::kResourceExhausted,
                        "shed for higher-priority arrival " +
                            std::to_string(id)),
          /*after_accept=*/true));
      counters_.shed_overload.fetch_add(1, std::memory_order_relaxed);
      evicted_ids.push_back(evicted.id);
    }
    journal_remove_locked(evicted_ids);
    if (verdict.status.ok()) {
      // Write-ahead: the journal holds the query *before* the accepted
      // ack leaves the process, so an ack always implies durability.
      if (journal_copy.has_value()) {
        journal_add_locked(std::move(*journal_copy));
      }
      counters_.accepted.fetch_add(1, std::memory_order_relaxed);
      replies.push_back(encode_accepted(id, verdict.est_wait_ms));
    } else {
      switch (verdict.status.code) {
        case StatusCode::kDeadlineExceeded:
          counters_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
          break;
        case StatusCode::kUnavailable:
          counters_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
          break;
        default:
          counters_.rejected_queue_full.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
      replies.push_back(encode_rejected(id, verdict.status));
    }
    update_overload_locked();
  }
  for (const std::string& reply : replies) emit(reply);
  queue_cv_.notify_all();
}

bool Server::handle_line(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    emit(encode_error(std::nullopt, oversized_line(line.size())));
    return true;
  }
  if (line.empty()) return true;  // blank lines are keep-alive noise

  Request request;
  const Status status = parse_request(line, request);
  if (!status.ok()) {
    // Best-effort correlation: if the line was at least valid JSON with an
    // integral id, echo it so the client can match the error to a request.
    std::optional<std::uint64_t> id;
    Json doc;
    if (parse_json(line, doc).ok() && doc.type == Json::Type::kObject) {
      const Json* found = doc.find("id");
      if (found != nullptr && found->is_integer && found->integer >= 0) {
        id = static_cast<std::uint64_t>(found->integer);
      }
    }
    emit(encode_error(id, status));
    return true;
  }

  switch (request.op) {
    case Op::kSolve:
      handle_solve(std::move(request));
      return true;
    case Op::kPing:
      emit(encode_pong(request.id));
      return true;
    case Op::kStats: {
      std::size_t depth = 0;
      std::int64_t wait_ms = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        depth = admission_.depth();
        wait_ms = admission_.backlog_wait_ms();
      }
      emit(encode_stats(request.id, depth, wait_ms,
                        gca::service_counters_json(counters_.snapshot())));
      return true;
    }
    case Op::kDrain: {
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        draining_ = true;
      }
      emit("{\"event\":\"draining\"}");
      queue_cv_.notify_all();
      return true;
    }
    case Op::kShutdown:
      return false;
  }
  return true;
}

// --- worker ---------------------------------------------------------------

void Server::dispatch_batch(std::vector<PendingQuery> batch) {
  const bool draining_now = [&] {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return draining_;
  }();

  BatchContext ctx;
  std::vector<graph::Graph> graphs;
  std::vector<const PendingQuery*> running;
  std::vector<std::size_t> edge_counts;  // taken before the graphs move
  std::vector<std::uint64_t> finished_ids;
  std::vector<std::string> replies;

  for (PendingQuery& query : batch) {
    std::int64_t remaining = 0;
    if (query.deadline_ms > 0) {
      remaining = query.deadline_ms - ms_since(query.admitted_at);
      if (remaining <= 0) {
        // Expired while queued: a precise reply, zero execution cost.
        DoneReply reply;
        reply.id = query.id;
        reply.status = Status::error(
            StatusCode::kDeadlineExceeded,
            "deadline expired after " + std::to_string(ms_since(query.admitted_at)) +
                " ms in the intake queue");
        replies.push_back(encode_done(reply));
        counters_.expired.fetch_add(1, std::memory_order_relaxed);
        if (draining_now) {
          counters_.drained.fetch_add(1, std::memory_order_relaxed);
        }
        finished_ids.push_back(query.id);
        continue;
      }
    }
    ctx.deadlines_ms.push_back(remaining);
    ctx.ids.push_back(query.id);
    ctx.sizes.push_back(query.graph.node_count());
    ctx.fault_seeds.push_back(options_.fault_seed * 0x9E3779B97F4A7C15ull +
                              query.id);
    edge_counts.push_back(query.graph.edge_count());
    graphs.push_back(std::move(query.graph));
    running.push_back(&query);
  }

  if (!graphs.empty()) {
    ctx.attempts = std::make_unique<std::atomic<unsigned>[]>(graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      ctx.attempts[i].store(0, std::memory_order_relaxed);
    }

    counters_.batches.fetch_add(1, std::memory_order_relaxed);
    current_batch_.store(&ctx, std::memory_order_release);
    const std::vector<core::QueryOutcome> outcomes =
        runner_->solve_batch(graphs);
    current_batch_.store(nullptr, std::memory_order_release);

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const core::QueryOutcome& outcome = outcomes[i];
      const PendingQuery& query = *running[i];
      if (hard_quit_.load(std::memory_order_relaxed) &&
          outcome.status.code == StatusCode::kCancelled) {
        // Drain timeout tripped the hard stop mid-batch: the query stays
        // journaled and replays in the next incarnation — no reply now.
        continue;
      }
      DoneReply reply;
      reply.id = query.id;
      reply.status = outcome.status;
      reply.attempts = outcome.attempts;
      reply.elapsed_ms = outcome.elapsed_ns / 1'000'000;
      if (outcome.ok()) {
        reply.labels = outcome.result.labels;
        reply.components = outcome.result.components;
        counters_.completed_ok.fetch_add(1, std::memory_order_relaxed);
        if (outcome.recovered()) {
          counters_.recovered.fetch_add(1, std::memory_order_relaxed);
        }
        model_.record(ctx.sizes[i], edge_counts[i], outcome.elapsed_ns);
      } else if (outcome.status.code == StatusCode::kDeadlineExceeded) {
        counters_.expired.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters_.failed.fetch_add(1, std::memory_order_relaxed);
      }
      if (draining_now) {
        counters_.drained.fetch_add(1, std::memory_order_relaxed);
      }
      replies.push_back(encode_done(reply));
      finished_ids.push_back(query.id);
    }
  }

  // Reply before unjournaling: a crash between the two replays the query
  // (at-least-once with deterministic results), never loses it.
  for (const std::string& reply : replies) emit(reply);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    journal_remove_locked(finished_ids);
  }
}

void Server::worker_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    queue_cv_.wait(lock, [&] {
      return hard_quit_.load(std::memory_order_relaxed) || worker_exit_ ||
             !admission_.empty();
    });
    if (hard_quit_.load(std::memory_order_relaxed)) return;
    if (admission_.empty()) {
      if (worker_exit_) return;
      continue;
    }
    // Dynamic micro-batching: batch size tracks queue depth — a lone
    // query dispatches alone (lowest latency), a deep queue amortises
    // dispatch across up to max_batch queries (highest throughput).
    const std::size_t depth = admission_.depth();
    std::vector<PendingQuery> batch =
        admission_.dequeue_batch(std::min(depth, options_.max_batch));
    std::int64_t batch_cost = 0;
    for (const PendingQuery& query : batch) batch_cost += query.est_ns;
    admission_.set_in_flight_ns(batch_cost);
    batch_in_flight_ = true;
    lock.unlock();

    dispatch_batch(std::move(batch));

    lock.lock();
    admission_.set_in_flight_ns(0);
    batch_in_flight_ = false;
    update_overload_locked();
    queue_cv_.notify_all();
  }
}

// --- the serve loop -------------------------------------------------------

int Server::serve(std::istream& in, std::ostream& out) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    out_ = &out;
  }
  replay_journal();
  std::thread worker([this] { worker_loop(); });

  // Bounded framing: each line lands in one frame of kMaxRequestBytes + 2
  // bytes, allocated once and never zero-filled.  A line that still fits
  // the frame but exceeds the cap by one byte is caught by its length; a
  // longer one fills the frame, and its tail is discarded up to the newline
  // without being stored, so an overlong line costs one error reply and
  // bounded memory.
  constexpr std::size_t kFrameBytes = kMaxRequestBytes + 2;
  const std::unique_ptr<char[]> frame(new char[kFrameBytes]);
  while (!stop_.load(std::memory_order_acquire)) {
    in.getline(frame.get(), static_cast<std::streamsize>(kFrameBytes));
    std::size_t length = static_cast<std::size_t>(in.gcount());
    if (in.bad() || (in.fail() && length == 0)) break;  // EOF or a dead stream
    if (in.fail()) {
      // The frame filled up before the newline.
      in.clear();
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      length += static_cast<std::size_t>(in.gcount()) - (in.eof() ? 0 : 1);
      emit(encode_error(std::nullopt, oversized_line(length)));
    } else {
      if (!in.eof()) --length;  // the newline was extracted, not stored
      if (!handle_line(std::string_view(frame.get(), length))) break;
    }
    if (in.eof()) break;
  }

  // Drain: intake is over; let the worker finish the backlog within the
  // drain budget, then hard-stop whatever is left (it stays journaled).
  int exit_code = 0;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    draining_ = true;
    queue_cv_.notify_all();
    const bool drained = queue_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.drain_timeout_ms),
        [&] { return admission_.empty() && !batch_in_flight_; });
    if (!drained) {
      hard_quit_.store(true, std::memory_order_release);
      hard_stop_.request_cancel();
      exit_code = 1;
    }
    worker_exit_ = true;
    queue_cv_.notify_all();
  }
  worker.join();

  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!options_.journal_path.empty()) {
      if (journaled_.empty()) {
        remove_journal_file(options_.journal_path);
      } else {
        journal_rewrite_locked();  // freshen remaining deadline budgets
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    out_ = nullptr;
  }
  return exit_code;
}

}  // namespace gcalib::gcad
