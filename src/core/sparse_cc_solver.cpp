#include "core/sparse_cc_solver.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/checkpoint.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/cancel.hpp"
#include "gca/metrics.hpp"
#include "gca/thread_pool.hpp"
#include "graph/certificate.hpp"
#include "graph/union_find.hpp"

namespace gcalib::core {

namespace {

using graph::NodeId;

/// Work items between stop polls — the same grain as the engine's chunk
/// boundaries: a tripped token or expired deadline aborts within a few
/// thousand cells of work, always *before* a result is published.
constexpr std::size_t kStopPollStride = 4096;

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

/// Runs per-lane bodies on the calling thread (one lane) or on the shared
/// pool, which rethrows the first lane exception on the calling thread
/// after all lanes finished.  The pool's epoch handshake is the barrier
/// that makes every lane's plain writes visible to the caller.
class SweepBackend {
 public:
  SweepBackend(unsigned threads, std::size_t n)
      : lanes_(static_cast<unsigned>(
            std::min<std::size_t>(threads, std::max<std::size_t>(n, 1)))) {
    if (lanes_ > 1) pool_ = gca::ThreadPool::shared(lanes_);
  }

  [[nodiscard]] unsigned lanes() const { return lanes_; }

  /// Runs `fn(lane)` once per lane concurrently.
  template <typename Fn>
  void run(const Fn& fn) const {
    if (lanes_ <= 1) {
      fn(0u);
      return;
    }
    auto lane_fn = [&fn](unsigned lane) { fn(lane); };
    pool_->run(lanes_, lane_fn);
  }

  /// Runs `body(lane, begin, end)` over a deterministic contiguous
  /// count-equal partition of [0, n) and returns the summed per-lane
  /// results.  The partition is fixed by (n, lanes) alone and every sweep
  /// writes only its own `next` slots, so results are bit-identical across
  /// lane counts.
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
};

/// Convergence guard: hooking + jump-to-fixpoint rounds are O(log n) (the
/// same doubling argument as the paper's generations 3/7/10); blowing far
/// past that bound means a library bug, not a hard input.
unsigned round_guard(NodeId n, unsigned slack) {
  unsigned log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n && log2n < 31) ++log2n;
  return 2 * (log2n + 2) + slack;
}

/// Calls `fn(u, v)` once per edge of the query on the representation it
/// arrived in, building no other: a `from_edges` CsrGraph's pairs as given,
/// or the rows of a `Graph` or another CsrGraph (one layout) with u < v.
/// Calls `block()` after every kStopPollStride reads (a pair, an arc, or a
/// row itself, so isolated vertices count too), splitting rows where
/// needed; the link pass checks its budgets there instead of once per edge.
/// Returns the number of `fn` calls.
template <typename Fn, typename Block>
std::size_t for_each_edge_block(const SolverInput& input, Fn&& fn,
                                Block&& block) {
  const graph::Graph* rows_of = input.has_csr() ? nullptr : &input.dense();
  if (rows_of == nullptr) {
    if (const std::vector<graph::Edge>* pairs = input.csr().input_pairs()) {
      const graph::Edge* e = pairs->data();
      const graph::Edge* const end = e + pairs->size();
      while (static_cast<std::size_t>(end - e) >= kStopPollStride) {
        for (const graph::Edge* const block_end = e + kStopPollStride;
             e != block_end; ++e) {
          fn(e->u, e->v);
        }
        block();
      }
      for (; e != end; ++e) fn(e->u, e->v);
      return pairs->size();
    }
  }
  // One walk for both row shapes, indexing the arc array directly: asking
  // a lazy CsrGraph for each row would check its once-only adjacency build
  // per vertex.
  const std::size_t* const offsets = rows_of != nullptr
                                         ? rows_of->offsets().data()
                                         : input.csr().offsets().data();
  const NodeId* const arcs = rows_of != nullptr ? rows_of->arcs().data()
                                                : input.csr().arcs().data();
  const NodeId n = input.node_count();
  std::size_t budget = kStopPollStride;  // reads left in this block
  for (NodeId u = 0; u < n; ++u) {
    std::span<const NodeId> r(arcs + offsets[u], offsets[u + 1] - offsets[u]);
    while (r.size() >= budget) {  // the block ends inside this row
      for (const NodeId v : r.first(budget)) {
        if (u < v) fn(u, v);
      }
      r = r.subspan(budget);
      block();
      budget = kStopPollStride;
    }
    for (const NodeId v : r) {
      if (u < v) fn(u, v);
    }
    budget -= r.size() + 1;  // r.size() < budget: stays >= 0
  }
  return offsets[n] / 2;  // every edge has one arc with u < v
}

void self_check_labels(const SolverInput& input, const QueryResult& result) {
  graph::UnionFind oracle(input.node_count());
  for_each_edge_block(
      input, [&oracle](NodeId u, NodeId v) { oracle.unite(u, v); }, [] {});
  GCALIB_ENSURES(result.labels == oracle.min_labels());
  GCALIB_ENSURES(result.components == oracle.set_count());
}

// ---------------------------------------------------------------------------
// Link pass — the production engine: one pass of link-by-min union-find
// over the query's edges (DESIGN.md §14).
// ---------------------------------------------------------------------------

/// Hirschberg's algorithm hooks every super node onto its smallest
/// neighbouring super node (step 2), then pointer-jumps every tree back
/// into a star (step 3).  Linking roots by minimum id makes the hook one
/// edge at a time: each edge runs Rem's loop with splicing (Patwary, Blair
/// and Manne, SEA 2010).  Every write lowers a parent, so a non-root always
/// has p[v] < v and every root is the minimum id of its set; one ascending
/// pass p[v] = p[p[v]] therefore turns every tree into a star, and after
/// the last edge it leaves the canonical min-id labeling, with no rank
/// array and no min-label pass.  The jump also runs mid-pass, between
/// blocks of edges, once the splices (writes to a non-root) since the
/// previous one reach n / 8: the edges after it mostly find both endpoints
/// under one root at once, and each jump's n steps are paid for by n / 8
/// splices, so the pass stays O(n + m + splices).  Inputs that never
/// splice (paths, stars, cliques) never jump early.  Duplicate pairs and
/// self-loops need no filtering: their endpoints are already in one set.
/// One lane: `threads` is not consulted.
QueryResult solve_link(const SolverInput& input, const RunOptions& options,
                       const StopState& stop) {
  QueryResult result;
  const NodeId n = input.node_count();
  const bool timed = options.sink != nullptr;
  const std::int64_t start_ns = timed ? gca::steady_now_ns() : 0;

  std::vector<NodeId> p(n);
  for (NodeId v = 0; v < n; ++v) p[v] = v;
  std::size_t links = 0;
  std::size_t splices = 0;  ///< since the last jump
  const auto link = [&p, &links, &splices](NodeId x, NodeId y) {
    while (p[x] != p[y]) {
      if (p[x] < p[y]) std::swap(x, y);  // now p[x] > p[y]
      if (p[x] == x) {
        p[x] = p[y];
        ++links;
        return;
      }
      const NodeId z = p[x];
      p[x] = p[y];
      x = z;
      ++splices;
    }
  };
  // p[v] <= v, so in ascending order p[p[v]] is already a root.  (A raw
  // pointer and a size_t index: a NodeId-indexed loop over the vector ran
  // 7% slower.)
  const auto jump = [d = p.data(), &stop, n] {
    for (std::size_t begin = 0; begin < n; begin += kStopPollStride) {
      const std::size_t end = std::min<std::size_t>(n, begin + kStopPollStride);
      for (std::size_t v = begin; v < end; ++v) d[v] = d[d[v]];
      if (stop.armed()) stop.poll();
    }
  };
  const std::size_t jump_at = std::max<std::size_t>(n / 8, 1);
  std::size_t jumps = 0;
  if (stop.armed()) stop.poll();
  const std::size_t edges = for_each_edge_block(input, link, [&] {
    if (splices >= jump_at) {
      jump();
      ++jumps;
      splices = 0;
    }
    if (stop.armed()) stop.poll();
  });
  jump();
  result.components = n - links;  // each link merged two sets
  result.labels = std::move(p);
  result.generations = 1;

  if (options.instrument || timed) {
    gca::GenerationStats stats;
    stats.label = "link";
    stats.cell_count = n;
    stats.cells_swept = std::size_t{n} * (jumps + 1);  // n per jump pass
    stats.active_cells = links;
    stats.total_reads = edges;
    if (timed) {
      stats.start_ns = static_cast<std::uint64_t>(start_ns);
      stats.duration_ns =
          static_cast<std::uint64_t>(gca::steady_now_ns() - start_ns);
      options.sink->on_step(stats);
    }
    if (options.instrument) result.sweeps.push_back(std::move(stats));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Resilience context — monitors, anchors, durable GSKP checkpoints
// (DESIGN.md §15).  Everything here is on the cold path: a kSync solve
// without sparse hooks / monitors / certify / checkpoint_dir / recovery
// passes a null context and runs the round loop untouched.
// ---------------------------------------------------------------------------

/// Steps of the bounded root chase a monitored round walks per vertex.
/// Chains shrink geometrically under pointer jumping, so a healthy run is
/// far below this; the bound only caps the monitor's cost on adversarial
/// mid-run chain shapes (an exceeded bound is not a violation).
constexpr unsigned kChaseBound = 16;

/// Internal detection signal of the resilient round loops: a monitor or
/// certificate found the label lattice corrupted.  Caught by the recovery
/// ladder (rollback → restart) and converted to
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
  /// Last good labels (rollback target); kept only while recovery is on.
  std::vector<NodeId> anchor;
  /// Labels at the end of the previous round: the monitors' baseline and
  /// what a GSKP save writes; kept only while one of them reads it.
  std::vector<NodeId> prev;

  template <typename Get>
  void start_attempt(const Get& get) {
    if (keeps_prev()) capture(prev, get);
    // The start state is a valid anchor.
    if (keeps_anchor() && anchor.empty()) capture(anchor, get);
  }

  template <typename Get, typename Set>
  void begin_round(unsigned round, const Get& get, const Set& set) {
    if (options->sparse_before_round) {
      options->sparse_before_round(make_ctx(round, get, set));
    }
    // Monitors run immediately after the injection point and *before* the
    // sweep: a label corrupted out of [0, n) would otherwise be used as an
    // array index inside the round body.
    if (options->sparse_monitors) monitors_or_throw(round, get);
  }

  template <typename Get, typename Set>
  void end_round(unsigned round, const Get& get, const Set& set) {
    if (options->sparse_after_round) {
      options->sparse_after_round(make_ctx(round, get, set));
    }
    if (options->sparse_monitors) monitors_or_throw(round, get);
    if (keeps_prev()) capture(prev, get);
    if ((round + 1) % interval == 0) {
      // Anchor only after the monitors passed: rollback targets are states
      // the checks believed in.  (A corruption the monitors cannot see can
      // still poison an anchor — that is exactly what the ladder's restart
      // rung exists for.)
      if (keeps_anchor()) capture(anchor, get);
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
  [[nodiscard]] bool keeps_prev() const {
    return options->sparse_monitors || !gskp_path.empty();
  }
  [[nodiscard]] bool keeps_anchor() const {
    return options->recovery.enabled();
  }

  template <typename Get>
  void capture(std::vector<NodeId>& labels, const Get& get) const {
    labels.resize(n);
    for (NodeId v = 0; v < n; ++v) labels[v] = get(v);
  }

  template <typename Get, typename Set>
  [[nodiscard]] SparseRoundContext make_ctx(
      unsigned round, const Get& get, const Set& set) const {
    SparseRoundContext ctx;
    ctx.round = round;
    ctx.n = n;
    ctx.get = get;
    ctx.set = set;
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
  // The hook sweeps index the arc array directly: asking the graph for
  // each row would check its once-only adjacency build per vertex.
  const std::vector<std::size_t>& offsets = csr.offsets();
  const std::vector<NodeId>& arcs = csr.arcs();
  const auto row = [&offsets, &arcs](std::size_t v) {
    return std::span<const NodeId>(arcs.data() + offsets[v],
                                   offsets[v + 1] - offsets[v]);
  };
  const auto hook_body = [&](unsigned, std::size_t begin,
                             std::size_t end) -> std::size_t {
    std::size_t active = 0;
    const std::vector<NodeId>& d = *read;
    if (!stop.armed()) {  // unarmed: the tight loop carries no poll counter
      for (std::size_t v = begin; v < end; ++v) {
        NodeId best = d[v];
        for (const NodeId u : row(v)) best = std::min(best, d[u]);
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
      for (const NodeId u : row(v)) {
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
    if (res != nullptr) res->begin_round(round, res_get, res_set);
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
    if (res != nullptr) res->end_round(round, res_get, res_set);
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
// Resilient driver — durable GSKP resume plus the recovery ladder:
// detect -> rollback to the last anchor -> fresh restart -> fail with the
// accumulated diagnosis (DESIGN.md §15).
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
                            const SweepBackend& backend) {
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

  for (;;) {
    try {
      QueryResult result = solve_sync(csr, options, stop, backend, &res);
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
        continue;
      }
      if (options.recovery.enabled() &&
          restarts < options.recovery.max_restarts) {
        ++restarts;
        res.seed.clear();  // identity labels: the run of record, replayed
        res.anchor.clear();
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
  const NodeId n = input.node_count();
  if (n == 0) return {};

  GCALIB_EXPECTS_MSG(options.threads >= 1,
                     "sparse-csr: threads must be >= 1");

  StopState stop;
  stop.cancel = options.cancel;
  if (options.deadline_ms > 0) {
    stop.deadline_ns = gca::steady_deadline_ns(options.deadline_ms);
  }

  // The link pass has no rounds, so every round-loop feature — the
  // resilience hooks, monitors, certificate, checkpoints, recovery — and an
  // explicit kSync run on the sync hook + jump reference.  Both produce the
  // same canonical min-id labeling (DESIGN.md §14).
  const bool resilient = options.sparse_monitors || options.certify ||
                         static_cast<bool>(options.sparse_before_round) ||
                         static_cast<bool>(options.sparse_after_round) ||
                         !options.checkpoint_dir.empty() ||
                         options.recovery.enabled();
  QueryResult result;
  if (!resilient && options.sparse_mode == gca::SparseMode::kAuto) {
    result = solve_link(input, options, stop);
  } else {
    const graph::CsrGraph& csr = input.csr();
    const SweepBackend backend(options.threads, n);
    result = resilient ? solve_resilient(csr, options, stop, backend)
                       : solve_sync(csr, options, stop, backend, nullptr);
  }
  if (options.self_check) self_check_labels(input, result);
  return result;
}

}  // namespace gcalib::core
