#include "core/sparse_cc_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/checkpoint.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/bitplane.hpp"
#include "gca/cancel.hpp"
#include "gca/metrics.hpp"
#include "gca/thread_pool.hpp"
#include "gca/worklist.hpp"
#include "graph/certificate.hpp"
#include "graph/union_find.hpp"

namespace gcalib::core {

namespace {

using graph::NodeId;

/// Work items between stop polls — the same grain as the engine's chunk
/// boundaries: a tripped token or expired deadline aborts within a few
/// thousand cells of work, always *before* a result is published.
constexpr std::size_t kStopPollStride = 4096;

/// Worklist entries a lane claims per cursor bump.  Small enough that a
/// handful of high-degree vertices cannot serialise the sweep behind one
/// lane, large enough that the cursor's cache line is not contended.
constexpr std::size_t kWorklistChunk = 256;

struct StopState {
  const gca::CancelToken* cancel = nullptr;
  std::int64_t deadline_ns = 0;  ///< absolute steady-clock; 0 = none

  [[nodiscard]] bool armed() const {
    return cancel != nullptr || deadline_ns != 0;
  }
  void poll() const {
    if (cancel != nullptr && cancel->cancel_requested()) {
      throw gca::Cancelled("sparse-csr sweep cancelled");
    }
    if (deadline_ns != 0 && gca::steady_now_ns() > deadline_ns) {
      throw gca::DeadlineExceeded("sparse-csr sweep deadline expired");
    }
  }
};

/// Per-lane tallies, one cache line each: lanes bump their own counters in
/// the hot loop without ever invalidating a sibling's line (a shared
/// atomic counter serialises every lane behind one line's ownership).
struct alignas(64) LaneTally {
  std::size_t changes = 0;
  std::size_t reads = 0;
};

/// Tree-style (pairwise, stride-doubling) reduction of the per-lane
/// tallies after the dispatch barrier: log2(lanes) combining rounds, the
/// PRAM reduction shape, instead of a serial left fold.  With the lane
/// counts in play the arithmetic difference is negligible — the point is
/// that no sweep ever funnels its convergence decision through a single
/// shared accumulator.
std::size_t reduce_changes(std::vector<LaneTally>& tallies) {
  const std::size_t lanes = tallies.size();
  for (std::size_t stride = 1; stride < lanes; stride *= 2) {
    for (std::size_t i = 0; i + stride < lanes; i += 2 * stride) {
      tallies[i].changes += tallies[i + stride].changes;
      tallies[i].reads += tallies[i + stride].reads;
    }
  }
  return tallies.empty() ? 0 : tallies[0].changes;
}

/// Runs per-lane bodies over the configured backend (sequential / spawn /
/// persistent pool) with per-lane exception capture; the first captured
/// exception is rethrown on the calling thread after all lanes joined.
/// The pool's epoch handshake (and the spawn join) is the barrier that
/// makes every lane's plain writes visible to the caller.
class SweepBackend {
 public:
  SweepBackend(unsigned threads, gca::ExecutionPolicy policy, std::size_t n)
      : lanes_(policy == gca::ExecutionPolicy::kSequential
                   ? 1u
                   : static_cast<unsigned>(std::min<std::size_t>(
                         threads, std::max<std::size_t>(n, 1)))) {
    if (lanes_ > 1 && policy == gca::ExecutionPolicy::kPool) {
      pool_ = gca::ThreadPool::shared(lanes_);
    }
  }

  [[nodiscard]] unsigned lanes() const { return lanes_; }

  /// Runs `fn(lane)` once per lane concurrently.
  template <typename Fn>
  void run(const Fn& fn) const {
    if (lanes_ <= 1) {
      fn(0u);
      return;
    }
    std::vector<std::exception_ptr> errors(lanes_);
    auto lane_fn = [&](unsigned lane) {
      try {
        fn(lane);
      } catch (...) {
        errors[lane] = std::current_exception();
      }
    };
    if (pool_ != nullptr) {
      pool_->run(lanes_, lane_fn);
    } else {
      std::vector<std::thread> workers;
      workers.reserve(lanes_ - 1);
      for (unsigned lane = 1; lane < lanes_; ++lane) {
        workers.emplace_back(lane_fn, lane);
      }
      lane_fn(0);
      for (std::thread& worker : workers) worker.join();
    }
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  /// Runs `body(lane, begin, end)` over a deterministic contiguous
  /// count-equal partition of [0, n) and returns the summed per-lane
  /// results.  The partition is fixed by (n, lanes) alone and every sweep
  /// writes only its own `next` slots, so results are bit-identical across
  /// backends and lane counts.
  template <typename Body>
  std::size_t sweep(std::size_t n, const Body& body) const {
    if (lanes_ <= 1 || n == 0) return body(0, 0, n);
    const std::size_t chunk = (n + lanes_ - 1) / lanes_;
    std::vector<std::size_t> active(lanes_, 0);
    run([&](unsigned lane) {
      const std::size_t begin = std::min(n, std::size_t{lane} * chunk);
      const std::size_t end = std::min(n, begin + chunk);
      active[lane] = body(lane, begin, end);
    });
    std::size_t total = 0;
    for (const std::size_t a : active) total += a;
    return total;
  }

  /// Like `sweep`, but over explicit vertex boundaries (lane k handles
  /// [bounds[k], bounds[k+1])) — the arc-balanced partition that keeps
  /// lanes loaded on skewed degree distributions.  A synchronous sweep is
  /// a pure function of the previous buffer, so *which* valid partition is
  /// used cannot change a single output bit.
  template <typename Body>
  std::size_t sweep_bounds(const std::vector<NodeId>& bounds,
                           const Body& body) const {
    GCALIB_ASSERT(bounds.size() == std::size_t{lanes_} + 1);
    if (lanes_ <= 1) return body(0, bounds.front(), bounds.back());
    std::vector<std::size_t> active(lanes_, 0);
    run([&](unsigned lane) {
      active[lane] = body(lane, bounds[lane], bounds[lane + 1]);
    });
    std::size_t total = 0;
    for (const std::size_t a : active) total += a;
    return total;
  }

 private:
  unsigned lanes_;
  std::shared_ptr<gca::ThreadPool> pool_;
};

/// Per-sweep statistics of the CSR substrate.  The logical counters are
/// deterministic (active cells = label changes; reads = arcs for a hook,
/// one per vertex for a jump).  Congestion for a hook sweep is exactly the
/// degree distribution — vertex u is read once per neighbour — so the
/// histogram is precomputed once per query; jump congestion is the label
/// in-degree histogram, recomputed per sweep (O(n), instrumented runs
/// only).
struct SweepStats {
  const graph::CsrGraph* csr = nullptr;
  bool enabled = false;
  bool timed = false;  ///< sink attached: stamp wall clocks

  // Hook-congestion projection, computed on first use.
  bool hook_ready = false;
  std::size_t hook_cells_read = 0;
  std::size_t hook_max_congestion = 0;
  std::map<std::size_t, std::size_t> hook_classes;

  void prepare_hook() {
    if (hook_ready) return;
    hook_ready = true;
    const NodeId n = csr->node_count();
    for (NodeId u = 0; u < n; ++u) {
      const std::size_t deg = csr->degree(u);
      if (deg == 0) continue;
      ++hook_cells_read;
      hook_max_congestion = std::max(hook_max_congestion, deg);
      ++hook_classes[deg];
    }
  }

  [[nodiscard]] gca::GenerationStats hook_stats(
      std::uint64_t generation, unsigned round,
      std::size_t active_cells) {
    prepare_hook();
    gca::GenerationStats stats;
    stats.generation = generation;
    stats.label = "hook#" + std::to_string(round);
    stats.cell_count = csr->node_count();
    stats.cells_swept = csr->node_count();
    stats.active_cells = active_cells;
    stats.total_reads = 2 * csr->edge_count();
    stats.cells_read = hook_cells_read;
    stats.max_congestion = hook_max_congestion;
    stats.congestion_classes = hook_classes;
    return stats;
  }

  [[nodiscard]] gca::GenerationStats jump_stats(
      std::uint64_t generation, unsigned round, unsigned sub,
      std::size_t active_cells, const std::vector<NodeId>& read_labels) {
    gca::GenerationStats stats;
    stats.generation = generation;
    stats.label =
        "jump#" + std::to_string(round) + "." + std::to_string(sub);
    stats.cell_count = csr->node_count();
    stats.cells_swept = csr->node_count();
    stats.active_cells = active_cells;
    stats.total_reads = csr->node_count();
    // Label in-degree histogram: cell d[v] received one read per vertex v.
    std::vector<std::size_t> reads(read_labels.size(), 0);
    for (const NodeId label : read_labels) ++reads[label];
    for (const std::size_t count : reads) {
      if (count == 0) continue;
      ++stats.cells_read;
      stats.max_congestion = std::max(stats.max_congestion, count);
      ++stats.congestion_classes[count];
    }
    return stats;
  }

  /// Async-round counters: cells_swept / active_cells / total_reads only.
  /// Congestion histograms are a synchronous-reference notion — they
  /// project *which cell was read how often in one generation*, and the
  /// in-place concurrent sweep has no generation-consistent read set to
  /// project (DESIGN.md §14).
  [[nodiscard]] gca::GenerationStats async_stats(
      std::uint64_t generation, const char* kind, unsigned round,
      std::size_t cells_swept, std::size_t active_cells,
      std::size_t total_reads) const {
    gca::GenerationStats stats;
    stats.generation = generation;
    stats.label = std::string(kind) + "#" + std::to_string(round);
    stats.cell_count = csr->node_count();
    stats.cells_swept = cells_swept;
    stats.active_cells = active_cells;
    stats.total_reads = total_reads;
    return stats;
  }
};

/// Convergence guard: hooking + jump-to-fixpoint rounds are O(log n) (the
/// same doubling argument as the paper's generations 3/7/10); blowing far
/// past that bound means a library bug, not a hard input.
unsigned round_guard(NodeId n, unsigned slack) {
  unsigned log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n && log2n < 31) ++log2n;
  return 2 * (log2n + 2) + slack;
}

void self_check_labels(const graph::CsrGraph& csr, const QueryResult& result) {
  const NodeId n = csr.node_count();
  graph::UnionFind oracle(n);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : csr.neighbors(u)) {
      if (u < v) oracle.unite(u, v);
    }
  }
  GCALIB_ENSURES(result.labels == oracle.min_labels());
  GCALIB_ENSURES(result.components == oracle.set_count());
}

// ---------------------------------------------------------------------------
// Resilience context — monitors, anchors, durable GSKP checkpoints
// (DESIGN.md §15).  Everything here is on the cold path: a solve without
// sparse hooks / monitors / certify / checkpoint_dir / recovery passes a
// null context and runs the PR-9 round loops untouched.
// ---------------------------------------------------------------------------

/// Steps of the bounded root chase a monitored round walks per vertex.
/// Chains shrink geometrically under pointer jumping, so a healthy run is
/// far below this; the bound only caps the monitor's cost on adversarial
/// mid-run chain shapes (an exceeded bound is not a violation).
constexpr unsigned kChaseBound = 16;

/// Internal detection signal of the resilient round loops: a monitor or
/// certificate found the label lattice corrupted.  Caught by the recovery
/// ladder (rollback → degraded sync re-run → restart) and converted to
/// ContractViolation only when the ladder is exhausted or disabled.
struct SparseDetection : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Per-attempt resilience state threaded through the round loops.  The
/// loops call `begin_round` / `end_round` between sweeps — every lane is
/// quiesced there, so the hooks and monitors read and write labels without
/// synchronisation.
class ResilienceState {
 public:
  const RunOptions* options = nullptr;
  NodeId n = 0;
  /// Rounds between anchors / durable saves (recovery.checkpoint_interval;
  /// 1 when recovery is disabled but checkpoint_dir is set).
  unsigned interval = 1;
  std::string gskp_path;         ///< empty = no durable checkpoints
  std::uint64_t graph_hash = 0;  ///< binds GSKP artifacts to the graph
  std::vector<NodeId> seed;    ///< start labels of the attempt; empty = identity
  std::vector<NodeId> anchor;  ///< last good labels (rollback target)
  std::vector<NodeId> prev;    ///< end of previous round (monitor baseline)

  template <typename Get>
  void start_attempt(const Get& get) {
    prev.resize(n);
    for (NodeId v = 0; v < n; ++v) prev[v] = get(v);
    if (anchor.empty()) anchor = prev;  // the start state is a valid anchor
  }

  template <typename Get, typename Set>
  void begin_round(unsigned round, bool async, const Get& get, const Set& set,
                   const std::function<void()>& drop) {
    if (options->sparse_before_round) {
      options->sparse_before_round(make_ctx(round, async, get, set, drop));
    }
    // Monitors run immediately after the injection point and *before* the
    // sweep: a label corrupted out of [0, n) would otherwise be used as an
    // array index inside the round body.
    if (options->sparse_monitors) monitors_or_throw(round, get);
  }

  template <typename Get, typename Set>
  void end_round(unsigned round, bool async, const Get& get, const Set& set,
                 const std::function<void()>& drop) {
    if (options->sparse_after_round) {
      options->sparse_after_round(make_ctx(round, async, get, set, drop));
    }
    if (options->sparse_monitors) monitors_or_throw(round, get);
    for (NodeId v = 0; v < n; ++v) prev[v] = get(v);
    if ((round + 1) % interval == 0) {
      // Anchor only after the monitors passed: rollback targets are states
      // the checks believed in.  (A corruption the monitors cannot see can
      // still poison an anchor — that is exactly what the ladder's restart
      // rung exists for.)
      anchor = prev;
      if (!gskp_path.empty()) save_gskp(round + 1);
    }
  }

  /// Writes the GSKP artifact for a run about to execute `next_round`.
  void save_gskp(unsigned next_round) const {
    SparseCheckpointData data;
    data.n = n;
    data.round = next_round;
    data.graph_hash = graph_hash;
    data.labels.assign(prev.begin(), prev.end());
    const Status status = save_sparse_checkpoint_file(gskp_path, data);
    if (!status.ok()) throw ContractViolation(status.message);
  }

 private:
  template <typename Get, typename Set>
  [[nodiscard]] SparseRoundContext make_ctx(
      unsigned round, bool async, const Get& get, const Set& set,
      const std::function<void()>& drop) const {
    SparseRoundContext ctx;
    ctx.round = round;
    ctx.n = n;
    ctx.async = async;
    ctx.get = get;
    ctx.set = set;
    ctx.drop_frontier = drop;
    return ctx;
  }

  /// The per-round lattice monitors: every label in range and at most its
  /// vertex id, monotone non-increasing against the previous round, and
  /// root-reachable via a bounded strictly-decreasing pointer chase.
  template <typename Get>
  void monitors_or_throw(unsigned round, const Get& get) const {
    for (NodeId v = 0; v < n; ++v) {
      const NodeId l = get(v);
      if (l >= n) {
        throw SparseDetection("sparse monitor: label of vertex " +
                              std::to_string(v) + " out of range (" +
                              std::to_string(l) + ") at round " +
                              std::to_string(round));
      }
      if (l > v) {
        throw SparseDetection("sparse monitor: label of vertex " +
                              std::to_string(v) + " exceeds its id (" +
                              std::to_string(l) + ") at round " +
                              std::to_string(round));
      }
      if (l > prev[v]) {
        throw SparseDetection("sparse monitor: label of vertex " +
                              std::to_string(v) + " increased (" +
                              std::to_string(prev[v]) + " -> " +
                              std::to_string(l) + ") at round " +
                              std::to_string(round));
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      NodeId l = get(v);
      for (unsigned step = 0; step < kChaseBound; ++step) {
        const NodeId next_l = get(l);
        if (next_l == l) break;
        if (next_l > l) {
          throw SparseDetection("sparse monitor: label chain of vertex " +
                                std::to_string(v) + " rises at " +
                                std::to_string(l) + " on round " +
                                std::to_string(round));
        }
        l = next_l;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Synchronous mode — the double-buffered golden reference.
// ---------------------------------------------------------------------------

QueryResult solve_sync(const graph::CsrGraph& csr, const RunOptions& options,
                       const StopState& stop, const SweepBackend& backend,
                       ResilienceState* res) {
  QueryResult result;
  const NodeId n = csr.node_count();

  SweepStats stats;
  stats.csr = &csr;
  stats.enabled = options.instrument || options.sink != nullptr;
  stats.timed = options.sink != nullptr;

  std::vector<NodeId> cur(n);
  std::vector<NodeId> next(n);
  for (NodeId v = 0; v < n; ++v) cur[v] = v;
  if (res != nullptr && !res->seed.empty()) cur = res->seed;
  // Between-rounds label view for the resilience hooks; reads/writes go
  // through `cur` by reference, so the buffer swaps stay transparent.
  const auto res_get = [&cur](NodeId v) { return cur[v]; };
  const auto res_set = [&cur](NodeId v, NodeId l) { cur[v] = l; };
  if (res != nullptr) res->start_attempt(res_get);

  const auto emit = [&](gca::GenerationStats&& sweep_stats,
                        std::int64_t start_ns) {
    if (stats.timed) {
      sweep_stats.start_ns = static_cast<std::uint64_t>(start_ns);
      sweep_stats.duration_ns =
          static_cast<std::uint64_t>(gca::steady_now_ns() - start_ns);
      options.sink->on_step(sweep_stats);
    }
    if (options.instrument) result.sweeps.push_back(std::move(sweep_stats));
  };

  const std::vector<NodeId>* read = &cur;  // sweeps read cur, write next
  const auto hook_body = [&](unsigned, std::size_t begin,
                             std::size_t end) -> std::size_t {
    std::size_t active = 0;
    const std::vector<NodeId>& d = *read;
    if (!stop.armed()) {  // unarmed: the tight loop carries no poll counter
      for (std::size_t v = begin; v < end; ++v) {
        NodeId best = d[v];
        for (const NodeId u : csr.neighbors(static_cast<NodeId>(v))) {
          best = std::min(best, d[u]);
        }
        next[v] = best;
        active += best != d[v] ? 1u : 0u;
      }
      return active;
    }
    // Armed: the poll budget counts *edges*, not vertices.  A per-vertex
    // counter lets one hub vertex scan millions of arcs between polls —
    // unbounded cancel latency on star-shaped inputs — so the budget is
    // spent inside the neighbour scan and a tripped token aborts within
    // ~kStopPollStride arcs wherever it lands.  Aborting mid-vertex is
    // safe: the exception unwinds before the sweep's buffer swap, so no
    // partial generation is ever published.
    std::size_t budget = kStopPollStride;
    for (std::size_t v = begin; v < end; ++v) {
      NodeId best = d[v];
      for (const NodeId u : csr.neighbors(static_cast<NodeId>(v))) {
        best = std::min(best, d[u]);
        if (--budget == 0) {
          budget = kStopPollStride;
          stop.poll();
        }
      }
      next[v] = best;
      active += best != d[v] ? 1u : 0u;
      if (--budget == 0) {  // isolated vertices still drain the budget
        budget = kStopPollStride;
        stop.poll();
      }
    }
    stop.poll();
    return active;
  };
  const auto jump_body = [&](unsigned, std::size_t begin,
                             std::size_t end) -> std::size_t {
    std::size_t active = 0;
    std::size_t since_poll = 0;
    const std::vector<NodeId>& d = *read;
    for (std::size_t v = begin; v < end; ++v) {
      const NodeId target = d[d[v]];
      next[v] = target;
      active += target != d[v] ? 1u : 0u;
      if (stop.armed() && ++since_poll >= kStopPollStride) {
        since_poll = 0;
        stop.poll();
      }
    }
    if (stop.armed()) stop.poll();
    return active;
  };

  // The hook sweep's cost per vertex is its degree, so lane boundaries
  // come from the degree prefix (edge-balanced), not from the vertex
  // count: a count-equal split of a star graph puts every arc in one
  // lane.  The jump sweep is O(1) per vertex — count-equal is already
  // balanced there.
  const std::vector<NodeId> hook_bounds =
      csr.edge_balanced_boundaries(backend.lanes());

  const unsigned max_rounds = round_guard(n, 8);
  for (unsigned round = 0;; ++round) {
    GCALIB_ASSERT_MSG(round < max_rounds,
                      "sparse-csr: hook/jump rounds failed to converge");
    if (res != nullptr) res->begin_round(round, false, res_get, res_set, {});
    const std::int64_t hook_start = stats.timed ? gca::steady_now_ns() : 0;
    const std::size_t hooked = backend.sweep_bounds(hook_bounds, hook_body);
    cur.swap(next);
    const std::uint64_t generation = result.generations++;
    if (stats.enabled) emit(stats.hook_stats(generation, round, hooked),
                            hook_start);
    if (hooked == 0) break;  // labels constant across every edge: converged

    for (unsigned sub = 0;; ++sub) {
      GCALIB_ASSERT_MSG(sub < max_rounds + 32,
                        "sparse-csr: pointer jumping failed to converge");
      const std::int64_t jump_start = stats.timed ? gca::steady_now_ns() : 0;
      const std::size_t jumped = backend.sweep(n, jump_body);
      if (jumped == 0) break;  // d is idempotent; nothing left to collapse
      cur.swap(next);
      const std::uint64_t jump_generation = result.generations++;
      if (stats.enabled) {
        // After the swap `next` holds the labels this sweep read *from* —
        // the read targets the congestion histogram is taken over.
        emit(stats.jump_stats(jump_generation, round, sub, jumped, next),
             jump_start);
      }
    }
    if (res != nullptr) res->end_round(round, false, res_get, res_set, {});
  }

  result.labels = std::move(cur);
  // At the fixpoint the label values are exactly the component minima and
  // each satisfies d[w] == w, so counting self-labelled vertices counts
  // components in O(n) without sorting.
  for (NodeId v = 0; v < n; ++v) {
    if (result.labels[v] == v) ++result.components;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Asynchronous mode — in-place concurrent CAS-min label propagation.
// ---------------------------------------------------------------------------

/// Lowers `slot` to at most `value`; returns true iff *this caller* made
/// it smaller.  Relaxed ordering is sufficient: labels form a monotone
/// non-increasing lattice where every stored value is the id of a
/// same-component vertex, so a stale read can only delay a decrease, never
/// un-make one, and the round barrier (pool epoch / thread join) orders
/// rounds against each other (Liu–Tarjan; DESIGN.md §14).
inline bool fetch_min(std::atomic<NodeId>& slot, NodeId value) {
  NodeId cur = slot.load(std::memory_order_relaxed);
  while (value < cur) {
    if (slot.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// The async generation loop.  Per round:
///
///  * hook pass — CAS-min label propagation over the arcs: a full round
///    partitions the *arc array* (not the vertex array) into count-equal
///    lane ranges aligned to `CsrGraph::kLineVertices` arcs, so a hub
///    vertex's row is split across lanes and star graphs stay balanced
///    (splitting a row is safe precisely because the update is a CAS-min
///    on the owner's label, not a private write);  a frontier round sweeps
///    only the worklist of vertices whose label changed last round, lanes
///    claiming `kWorklistChunk`-entry slices off a shared atomic cursor,
///    and updates *both* endpoints of every arc it scans (so the changed
///    vertex's neighbourhood is covered without materialising N(changed));
///  * shortcut pass — full O(n) pointer jumping with root chase:
///    label[v] <- root(label[v]), compressing label chains in one pass
///    (labels satisfy label[x] <= x, so the chase is a strictly
///    decreasing walk and always terminates).
///
/// Vertices whose label changed (in either pass) are recorded in per-lane
/// leased bitsets (gca::ScratchLease — zero steady-state allocation) and
/// merged into a shared atomic bitset with one fetch_or per non-zero word;
/// the next round's worklist is built from that snapshot when the changed
/// count is at or below `sparse_frontier * n`, and the round falls back to
/// the full arc sweep above it.  Convergence: a round with zero changes in
/// both passes is a global fixpoint — any still-violated arc (u, v) with
/// label[u] < label[v] would require u's label to have changed after the
/// last full sweep of that arc, which puts u in the current worklist, and
/// u's row was just swept without effect.
QueryResult solve_async(const graph::CsrGraph& csr, const RunOptions& options,
                        const StopState& stop, const SweepBackend& backend,
                        ResilienceState* res) {
  QueryResult result;
  const NodeId n = csr.node_count();
  const std::vector<std::size_t>& offsets = csr.offsets();
  const std::vector<NodeId>& arcs = csr.arcs();
  const std::size_t arc_count = arcs.size();
  const unsigned lanes = backend.lanes();

  SweepStats stats;
  stats.csr = &csr;
  stats.enabled = options.instrument || options.sink != nullptr;
  stats.timed = options.sink != nullptr;
  const auto emit = [&](gca::GenerationStats&& sweep_stats,
                        std::int64_t start_ns) {
    if (stats.timed) {
      sweep_stats.start_ns = static_cast<std::uint64_t>(start_ns);
      sweep_stats.duration_ns =
          static_cast<std::uint64_t>(gca::steady_now_ns() - start_ns);
      options.sink->on_step(sweep_stats);
    }
    if (options.instrument) result.sweeps.push_back(std::move(sweep_stats));
  };

  // One atomic label slot per vertex, initialised before the first
  // dispatch (the dispatch barrier publishes the stores to every lane).
  std::unique_ptr<std::atomic<NodeId>[]> label(new std::atomic<NodeId>[n]);
  for (NodeId v = 0; v < n; ++v) {
    label[v].store(res != nullptr && !res->seed.empty() ? res->seed[v] : v,
                   std::memory_order_relaxed);
  }

  // Shared changed bitset (atomic words, fetch_or-merged from the per-lane
  // leased bitsets) and its plain snapshot for worklist extraction.
  const std::size_t word_count = (std::size_t{n} + 63) / 64;
  std::unique_ptr<std::atomic<std::uint64_t>[]> changed_bits(
      new std::atomic<std::uint64_t>[word_count]);

  // Between-rounds label view for the resilience hooks.  Hooks run with
  // every lane quiesced (between backend dispatches), so relaxed loads and
  // stores are plain accesses in effect.  `drop_fn` clears the changed
  // bitset — the stale-frontier fault site: the labels keep their values
  // but the next worklist forgets who moved.
  const auto res_get = [&label](NodeId v) {
    return label[v].load(std::memory_order_relaxed);
  };
  const auto res_set = [&label](NodeId v, NodeId l) {
    label[v].store(l, std::memory_order_relaxed);
  };
  std::function<void()> drop_fn;
  if (res != nullptr) {
    drop_fn = [&changed_bits, word_count] {
      for (std::size_t w = 0; w < word_count; ++w) {
        changed_bits[w].store(0, std::memory_order_relaxed);
      }
    };
    res->start_attempt(res_get);
  }

  // Arc-range lane boundaries for full hook rounds: count-equal over the
  // arc array, rounded down to a kLineVertices-arc grain.
  std::vector<std::size_t> arc_bounds(std::size_t{lanes} + 1, arc_count);
  arc_bounds[0] = 0;
  for (unsigned k = 1; k < lanes; ++k) {
    std::size_t b = arc_count * k / lanes;
    b -= b % graph::CsrGraph::kLineVertices;
    arc_bounds[k] = std::max(arc_bounds[k - 1], std::min(b, arc_count));
  }

  const double fraction =
      std::clamp(options.sparse_frontier, 0.0, 1.0);
  const auto frontier_limit =
      static_cast<std::size_t>(fraction * static_cast<double>(n));

  std::vector<LaneTally> hook_tally(lanes);
  std::vector<LaneTally> jump_tally(lanes);
  gca::Worklist worklist;
  bool use_worklist = false;  // round 0 must sweep every arc

  const auto set_bit = [](std::uint64_t* words, NodeId v) {
    words[v >> 6] |= std::uint64_t{1} << (v & 63);
  };
  const auto merge_bits = [&](const std::uint64_t* local) {
    for (std::size_t w = 0; w < word_count; ++w) {
      if (local[w] != 0) {
        changed_bits[w].fetch_or(local[w], std::memory_order_relaxed);
      }
    }
  };

  const unsigned max_rounds = round_guard(n, 16);
  for (unsigned round = 0;; ++round) {
    GCALIB_ASSERT_MSG(round < max_rounds,
                      "sparse-csr: async rounds failed to converge");
    if (res != nullptr) res->begin_round(round, true, res_get, res_set, drop_fn);
    for (std::size_t w = 0; w < word_count; ++w) {
      changed_bits[w].store(0, std::memory_order_relaxed);
    }
    for (LaneTally& t : hook_tally) t = {};
    for (LaneTally& t : jump_tally) t = {};

    // --- hook pass -------------------------------------------------------
    const std::int64_t hook_start = stats.timed ? gca::steady_now_ns() : 0;
    std::atomic<std::size_t> cursor{0};
    if (use_worklist) {
      const std::uint32_t* items = worklist.data();
      const std::size_t item_count = worklist.size();
      backend.run([&](unsigned lane) {
        gca::ScratchLease<std::uint64_t> local(word_count);
        std::fill_n(local.data(), word_count, std::uint64_t{0});
        std::size_t changes = 0;
        std::size_t reads = 0;
        std::size_t budget = kStopPollStride;
        for (std::size_t begin =
                 cursor.fetch_add(kWorklistChunk, std::memory_order_relaxed);
             begin < item_count;
             begin =
                 cursor.fetch_add(kWorklistChunk, std::memory_order_relaxed)) {
          const std::size_t end =
              std::min(item_count, begin + kWorklistChunk);
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId v = items[i];
            NodeId lv = label[v].load(std::memory_order_relaxed);
            const std::size_t row_end = offsets[std::size_t{v} + 1];
            reads += row_end - offsets[v];
            for (std::size_t a = offsets[v]; a < row_end; ++a) {
              const NodeId u = arcs[a];
              const NodeId lu = label[u].load(std::memory_order_relaxed);
              if (lu < lv) {
                if (fetch_min(label[v], lu)) {
                  set_bit(local.data(), v);
                  ++changes;
                }
                // lu is now a former value of label[v]: a valid (possibly
                // stale) upper bound for the reverse-direction updates.
                lv = lu;
              } else if (lv < lu) {
                if (fetch_min(label[u], lv)) {
                  set_bit(local.data(), u);
                  ++changes;
                }
              }
              if (stop.armed() && --budget == 0) {
                budget = kStopPollStride;
                stop.poll();
              }
            }
          }
        }
        merge_bits(local.data());
        hook_tally[lane].changes = changes;
        hook_tally[lane].reads = reads;
        if (stop.armed()) stop.poll();
      });
    } else {
      backend.run([&](unsigned lane) {
        gca::ScratchLease<std::uint64_t> local(word_count);
        std::fill_n(local.data(), word_count, std::uint64_t{0});
        std::size_t changes = 0;
        const std::size_t a0 = arc_bounds[lane];
        const std::size_t a1 = arc_bounds[lane + 1];
        if (a0 < a1) {
          // Owner of the first arc: the last vertex whose offset is <= a0.
          NodeId v = static_cast<NodeId>(
              std::upper_bound(offsets.begin(), offsets.end(), a0) -
              offsets.begin() - 1);
          std::size_t budget = kStopPollStride;
          for (std::size_t a = a0; a < a1; ++a) {
            while (offsets[std::size_t{v} + 1] <= a) ++v;
            // One direction per arc suffices in a full sweep: the reverse
            // arc is in the array too (possibly in another lane's range).
            const NodeId lu = label[arcs[a]].load(std::memory_order_relaxed);
            if (fetch_min(label[v], lu)) {
              set_bit(local.data(), v);
              ++changes;
            }
            if (stop.armed() && --budget == 0) {
              budget = kStopPollStride;
              stop.poll();
            }
          }
        }
        merge_bits(local.data());
        hook_tally[lane].changes = changes;
        hook_tally[lane].reads = a1 - a0;
        if (stop.armed()) stop.poll();
      });
    }
    const std::size_t swept =
        use_worklist ? worklist.size() : static_cast<std::size_t>(n);
    const std::size_t hooked = reduce_changes(hook_tally);
    if (stats.enabled) {
      emit(stats.async_stats(result.generations,
                             use_worklist ? "cas-hook-frontier" : "cas-hook",
                             round, swept, hooked, hook_tally[0].reads),
           hook_start);
    }
    ++result.generations;

    // --- shortcut pass (full, O(n) with root chase) ----------------------
    const std::int64_t jump_start = stats.timed ? gca::steady_now_ns() : 0;
    backend.run([&](unsigned lane) {
      gca::ScratchLease<std::uint64_t> local(word_count);
      std::fill_n(local.data(), word_count, std::uint64_t{0});
      std::size_t changes = 0;
      const std::size_t chunk = (std::size_t{n} + lanes - 1) / lanes;
      const std::size_t begin = std::min<std::size_t>(n, chunk * lane);
      const std::size_t end = std::min<std::size_t>(n, begin + chunk);
      std::size_t since_poll = 0;
      for (std::size_t v = begin; v < end; ++v) {
        NodeId l = label[v].load(std::memory_order_relaxed);
        NodeId r = label[l].load(std::memory_order_relaxed);
        while (r < l) {  // labels satisfy label[x] <= x: strictly decreasing
          l = r;
          r = label[l].load(std::memory_order_relaxed);
        }
        if (fetch_min(label[v], l)) {
          set_bit(local.data(), static_cast<NodeId>(v));
          ++changes;
        }
        if (stop.armed() && ++since_poll >= kStopPollStride) {
          since_poll = 0;
          stop.poll();
        }
      }
      merge_bits(local.data());
      jump_tally[lane].changes = changes;
      if (stop.armed()) stop.poll();
    });
    const std::size_t jumped = reduce_changes(jump_tally);
    if (stats.enabled) {
      emit(stats.async_stats(result.generations, "shortcut", round, n, jumped,
                             n),
           jump_start);
    }
    ++result.generations;

    // End-of-round hooks run *before* the frontier decision, so a dropped
    // changed bitset (the stale-frontier fault site) poisons exactly the
    // worklist the next round would have trusted.
    if (res != nullptr) res->end_round(round, true, res_get, res_set, drop_fn);

    const std::size_t changed = hooked + jumped;
    if (changed == 0) break;

    // --- frontier decision for the next round ----------------------------
    use_worklist = frontier_limit > 0 && changed <= frontier_limit;
    if (use_worklist) {
      gca::ScratchLease<std::uint64_t> snapshot(word_count);
      for (std::size_t w = 0; w < word_count; ++w) {
        snapshot.data()[w] = changed_bits[w].load(std::memory_order_relaxed);
      }
      worklist.assign_from_bits(snapshot.data(), word_count);
    }
  }

  result.labels.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.labels[v] = label[v].load(std::memory_order_relaxed);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (result.labels[v] == v) ++result.components;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Resilient driver — durable GSKP resume plus the recovery ladder:
// detect -> rollback to the last anchor (re-run in deterministic sync mode)
// -> fresh restart -> fail with the accumulated diagnosis (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// Builds and verifies the spanning-forest certificate for `result`; any
/// failure is a detection (the ladder's problem, not the caller's).
void certify_or_throw(const graph::CsrGraph& csr, const QueryResult& result) {
  graph::ForestCertificate certificate;
  Status status = build_certificate(csr, result.labels, certificate);
  if (status.ok()) {
    status =
        verify_certificate(csr, result.labels, result.components, certificate);
  }
  if (!status.ok()) throw SparseDetection(status.message);
}

QueryResult solve_resilient(const graph::CsrGraph& csr,
                            const RunOptions& options, const StopState& stop,
                            const SweepBackend& backend, gca::SparseMode mode) {
  const NodeId n = csr.node_count();

  ResilienceState res;
  res.options = &options;
  res.n = n;
  res.interval = options.recovery.enabled()
                     ? std::max(1u, options.recovery.checkpoint_interval)
                     : 1;

  unsigned rollbacks = 0;
  unsigned restarts = 0;
  std::vector<std::string> diagnoses;
  bool resumed = false;
  unsigned resume_round = 0;

  if (!options.checkpoint_dir.empty()) {
    Status status = ensure_checkpoint_dir(options.checkpoint_dir);
    if (!status.ok()) throw ContractViolation(status.message);
    res.gskp_path = sparse_checkpoint_path_in(options.checkpoint_dir);
    res.graph_hash = csr.content_hash();
    SparseCheckpointData ckpt;
    status = load_sparse_checkpoint_file(res.gskp_path, ckpt);
    if (status.ok()) {
      if (ckpt.n == n && ckpt.graph_hash == res.graph_hash) {
        res.seed.assign(ckpt.labels.begin(), ckpt.labels.end());
        resumed = true;
        resume_round = ckpt.round;
      } else {
        // An intact artifact for a *different* graph: not corruption, just
        // a reused directory.  Diagnose and start fresh.
        diagnoses.push_back(
            "sparse checkpoint ignored: belongs to a different graph (n=" +
            std::to_string(ckpt.n) + ")");
      }
    } else if (status.code == StatusCode::kDataLoss) {
      diagnoses.push_back("sparse checkpoint rejected (" + status.message +
                          "); starting fresh");
    }
    // kNotFound is the normal cold start: silent.
  }

  // Rollback re-runs happen in the double-buffered synchronous mode
  // regardless of the requested mode: deterministic, monitorable between
  // every sweep, the degraded tier the dense ladder's sync re-run mirrors.
  bool degraded = false;
  for (;;) {
    try {
      const bool sync = mode == gca::SparseMode::kSync || degraded;
      QueryResult result = sync
                               ? solve_sync(csr, options, stop, backend, &res)
                               : solve_async(csr, options, stop, backend, &res);
      // The certificate is the end-of-run oracle: monitors are lattice
      // checks and cannot see a silently pinned vertex, but a spanning
      // forest over the final labels can.
      if (options.certify || options.sparse_monitors) {
        certify_or_throw(csr, result);
        result.certified = options.certify;
      }
      result.rollbacks = rollbacks;
      result.restarts = restarts;
      result.diagnoses = std::move(diagnoses);
      result.resumed = resumed;
      result.resume_round = resume_round;
      if (!res.gskp_path.empty()) remove_checkpoint_file(res.gskp_path);
      return result;
    } catch (const gca::Cancelled&) {
      throw;  // an aborted run is not a detection
    } catch (const gca::DeadlineExceeded&) {
      throw;
    } catch (const std::runtime_error& e) {
      // SparseDetection, plus ContractViolation escaping a round body (a
      // corrupted label used as an index trips an assert there) — the same
      // taxonomy the dense ladder applies.
      diagnoses.emplace_back(e.what());
      if (options.recovery.enabled() &&
          rollbacks < options.recovery.max_rollbacks) {
        ++rollbacks;
        res.seed = res.anchor;  // last state the monitors believed in
        degraded = true;
        continue;
      }
      if (options.recovery.enabled() &&
          restarts < options.recovery.max_restarts) {
        ++restarts;
        res.seed.clear();  // identity labels: the run of record, replayed
        res.anchor.clear();
        degraded = false;
        continue;
      }
      std::string joined =
          "sparse-csr: unrecoverable corruption (" +
          std::to_string(rollbacks) + " rollbacks, " +
          std::to_string(restarts) + " restarts)";
      for (const std::string& d : diagnoses) joined += "\n  - " + d;
      // The artifact may hold labels written after a corruption the
      // monitors could not see; a retry that resumed from it would fail the
      // same certificate.  Only Cancelled and DeadlineExceeded keep it.
      if (!res.gskp_path.empty()) remove_checkpoint_file(res.gskp_path);
      throw ContractViolation(joined);
    }
  }
}

}  // namespace

QueryResult SparseCcSolver::solve(const SolverInput& input,
                                  const RunOptions& options) const {
  const graph::CsrGraph& csr = input.csr();
  const NodeId n = csr.node_count();
  if (n == 0) return {};

  GCALIB_EXPECTS_MSG(options.threads >= 1,
                     "sparse-csr: threads must be >= 1");
  GCALIB_EXPECTS_MSG(
      !(options.threads > 1 &&
        options.policy == gca::ExecutionPolicy::kSequential),
      "sparse-csr: threads > 1 requires a parallel policy (spawn or pool)");

  StopState stop;
  stop.cancel = options.cancel;
  if (options.deadline_ms > 0) {
    stop.deadline_ns = gca::steady_deadline_ns(options.deadline_ms);
  }
  const SweepBackend backend(options.threads, options.policy, n);

  // kAuto resolves to the concurrent path exactly when the sweep is
  // parallel: with one lane the CAS-min loop is pure overhead, and the
  // synchronous reference is the stronger default (bit-identical history,
  // full congestion instrumentation).  Both paths converge to the same
  // canonical min-id labeling (DESIGN.md §14), so the choice is invisible
  // in the result.
  gca::SparseMode mode = options.sparse_mode;
  if (mode == gca::SparseMode::kAuto) {
    mode = backend.lanes() > 1 ? gca::SparseMode::kAsync
                               : gca::SparseMode::kSync;
  }

  // The fast path (null resilience context) is the PR-9 round loops,
  // untouched: everything below only engages when a resilience feature was
  // asked for.
  const bool resilient = options.sparse_monitors || options.certify ||
                         static_cast<bool>(options.sparse_before_round) ||
                         static_cast<bool>(options.sparse_after_round) ||
                         !options.checkpoint_dir.empty() ||
                         options.recovery.enabled();
  QueryResult result =
      resilient ? solve_resilient(csr, options, stop, backend, mode)
                : (mode == gca::SparseMode::kSync
                       ? solve_sync(csr, options, stop, backend, nullptr)
                       : solve_async(csr, options, stop, backend, nullptr));
  if (options.self_check) self_check_labels(csr, result);
  return result;
}

}  // namespace gcalib::core
