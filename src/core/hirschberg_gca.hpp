// Hirschberg's connected-components algorithm on a one-handed, uniform GCA
// — the paper's primary contribution (section 3).
//
// Cell field: (n+1) x n.  Each square cell (j, i) carries
//   a — the adjacency bit A(j, i),
//   d — the working data word (node / super-node numbers, or infinity),
//   p — the pointer most recently used (recomputed every generation, as in
//       the paper's "=" assignments; kept in the state for traceability).
// The bottom row D_N buffers the C / T vectors between phases.
//
// The run is a direct execution of the Figure-2 state machine: one engine
// step per generation (log n steps for generations 3, 7 and 10), repeated
// for ceil(log2 n) outer iterations.  Every cell evaluates the same uniform
// rule; position-dependent behaviour (first column, bottom row, square) is
// part of that rule, exactly as in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "core/checkpoint.hpp"
#include "core/generation.hpp"
#include "gca/bitplane.hpp"
#include "gca/cancel.hpp"
#include "gca/engine.hpp"
#include "gca/execution.hpp"
#include "gca/field.hpp"
#include "gca/worklist.hpp"
#include "graph/graph.hpp"

namespace gcalib::core {

/// GCA cell state (paper: "(a, d, p)" for square cells, "(d, p)" for the
/// bottom row; we carry a = 0 there).
struct Cell {
  std::uint32_t a = 0;  ///< adjacency bit A(row, col)
  std::uint32_t d = 0;  ///< data word
  std::uint32_t p = 0;  ///< pointer used in the last generation
  friend bool operator==(const Cell&, const Cell&) = default;
};

/// The infinity sentinel of the min computations.
inline constexpr std::uint32_t kInfData = std::numeric_limits<std::uint32_t>::max();

}  // namespace gcalib::core

namespace gcalib::gca {

/// SoA layout for the Hirschberg cell (DESIGN.md §9/§13): the adjacency bit
/// is written once at initialisation (and by fault injection through
/// `Engine::set_state`), so only `d` and `p` are double-buffered.  The
/// adjacency plane is *bit-packed* 64 cells per word (gca::BitPlane) — the
/// paper's model stores exactly one bit there, and packing cuts the mask
/// kernels' adjacency traffic 32x while the word-at-a-time kernel variants
/// (gca/kernel_registry.hpp) test eight cells per shift.  `load` composes
/// the bit back to the 0/1 word the Cell API always exposed, so mediated
/// rules, fault injection (which flips the bit with mask 1) and the
/// checkpoint format are unchanged.
template <>
struct SoaLayout<core::Cell> {
  static constexpr bool kEnabled = true;

  struct Immutable {
    BitPlane a;
  };
  struct Mutable {
    std::vector<std::uint32_t> d;
    std::vector<std::uint32_t> p;
  };

  static void init(const std::vector<core::Cell>& cells, Immutable& immutable,
                   Mutable& mutable_part) {
    const std::size_t count = cells.size();
    immutable.a.resize(count);
    mutable_part.d.resize(count);
    mutable_part.p.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (cells[i].a != 0) immutable.a.set(i, true);
      mutable_part.d[i] = cells[i].d;
      mutable_part.p[i] = cells[i].p;
    }
  }
  static void resize(Mutable& mutable_part, std::size_t count) {
    mutable_part.d.resize(count);
    mutable_part.p.resize(count);
  }
  [[nodiscard]] static std::size_t size(const Mutable& mutable_part) {
    return mutable_part.d.size();
  }
  [[nodiscard]] static core::Cell load(const Immutable& immutable,
                                       const Mutable& mutable_part,
                                       std::size_t i) {
    return core::Cell{immutable.a.test(i) ? 1u : 0u, mutable_part.d[i],
                      mutable_part.p[i]};
  }
  static void store(const Immutable& immutable, Mutable& mutable_part,
                    std::size_t i, const core::Cell& value) {
    GCALIB_ASSERT_MSG(value.a == (immutable.a.test(i) ? 1u : 0u),
                      "rules must not modify the immutable adjacency bit");
    mutable_part.d[i] = value.d;
    mutable_part.p[i] = value.p;
  }
  static void store_host(Immutable& immutable, Mutable& mutable_part,
                         std::size_t i, const core::Cell& value) {
    immutable.a.set(i, value.a != 0);
    mutable_part.d[i] = value.d;
    mutable_part.p[i] = value.p;
  }
  static void copy(const Mutable& from, Mutable& to, std::size_t i) {
    to.d[i] = from.d[i];
    to.p[i] = from.p[i];
  }
  /// Contiguous bulk copy for the engine's complement-swap commit.
  static void copy_span(const Mutable& from, Mutable& to, std::size_t begin,
                        std::size_t end) {
    const auto b = static_cast<std::ptrdiff_t>(begin);
    const auto e = static_cast<std::ptrdiff_t>(end);
    std::copy(from.d.begin() + b, from.d.begin() + e, to.d.begin() + b);
    std::copy(from.p.begin() + b, from.p.begin() + e, to.p.begin() + b);
  }
};

}  // namespace gcalib::gca

namespace gcalib::core {

/// Identifies one engine step within a run.
struct StepId {
  unsigned iteration = 0;      ///< outer iteration (0-based); 0 for gen 0
  Generation generation = Generation::kInit;
  unsigned subgeneration = 0;  ///< 0 unless the generation iterates
  friend bool operator==(const StepId&, const StepId&) = default;
};

/// A recorded engine step: identification plus measured statistics.
struct StepRecord {
  StepId id;
  gca::GenerationStats stats;
};

class HirschbergGca;

/// Mutable between-rounds view of the sparse CSR label lattice, handed to
/// the sparse resilience hooks (fault injection and monitors — DESIGN.md
/// §15).  Hooks run on the driving thread while every sweep lane is
/// quiesced, so `get`/`set` are plain accesses with no synchronisation
/// burden on the hook.  `set` may raise a label — that is exactly what a
/// fault injector does — and the per-round monitors (`sparse_monitors`)
/// are what catches it before the next sweep dereferences it.
struct SparseRoundContext {
  unsigned round = 0;        ///< 0-based hook/jump round index
  graph::NodeId n = 0;       ///< vertex count; labels are indexed [0, n)
  std::function<graph::NodeId(graph::NodeId)> get;  ///< read label[v]
  std::function<void(graph::NodeId, graph::NodeId)> set;  ///< write label[v]
};

/// Checkpoint/rollback policy for detected state corruption (see src/fault/
/// for the injectors and monitors that produce the detections).
struct RecoveryPolicy {
  /// Outer iterations between engine snapshots.  0 disables checkpointing:
  /// a detection then throws ContractViolation instead of recovering.
  unsigned checkpoint_interval = 0;
  /// Rollbacks to the latest checkpoint before escalating to a restart.
  unsigned max_rollbacks = 3;
  /// Full restarts (from the post-initialisation snapshot) before the run
  /// fails with the accumulated diagnosis.
  unsigned max_restarts = 1;
  [[nodiscard]] bool enabled() const { return checkpoint_interval > 0; }
};

/// Options controlling a run.
struct RunOptions {
  bool instrument = true;      ///< collect per-step congestion statistics
  bool record_access = false;  ///< record individual access edges (slow)
  unsigned threads = 1;        ///< parallel sweep width
  /// Sweep backend for threads > 1 (default: the persistent shared pool;
  /// kSpawn recreates the legacy spawn-per-generation behaviour).
  gca::ExecutionPolicy policy = gca::ExecutionPolicy::kPool;
  /// Whether the engine honours the per-generation active regions of the
  /// Figure-2 state machine (kSparse, the default: work proportional to
  /// the active cells) or sweeps the whole field every generation (kDense:
  /// the verification mode — bit-identical states and logical stats).
  gca::SweepMode sweep = gca::SweepMode::kSparse;
  /// Bulk-kernel variant the fast path dispatches
  /// (gca/kernel_registry.hpp): kAuto resolves to the best the host
  /// supports (AVX2 / NEON / scalar).  Only consulted when the fast
  /// kernels are enabled at all (sparse sweep, no instrumentation); every
  /// variant is bit-identical to the scalar reference.
  gca::KernelVariant kernels = gca::KernelVariant::kAuto;
  /// Engine of the CSR solver (ignored by the dense cell-field machine):
  /// kAuto runs the one-lane link pass over the edges unless a round-loop
  /// feature (sparse hooks, monitors, certify, checkpoint_dir, recovery) is
  /// set; kSync always runs the double-buffered hook + jump loop, the
  /// bit-identical golden reference.  Both end in the same canonical min-id
  /// labeling (DESIGN.md §14).
  gca::SparseMode sparse_mode = gca::SparseMode::kAuto;
  /// Paranoid mode: validates machine invariants after every outer
  /// iteration (labels are node ids, component count never increases) and
  /// the final labeling against a sequential oracle.  Throws
  /// ContractViolation on any violation.  Costs O(m alpha(n)) at the end.
  bool self_check = false;
  /// Metrics sink attached to the engine for the duration of the run
  /// (non-owning; nullptr = no tracing).  While attached, every engine
  /// step is wall-clock timed and pushed to the sink — and the timing also
  /// appears in `RunResult::records` / `on_step` stats.  See
  /// gca/metrics.hpp.
  gca::MetricsSink* sink = nullptr;
  /// Called after every engine step (tracing / golden tests); may be empty.
  std::function<void(const StepRecord&)> on_step;

  // --- robustness hooks (wired up by fault::run_resilient) --------------

  /// Called immediately before each engine step; may mutate cell state
  /// through the machine (fault injection).
  std::function<void(HirschbergGca&, const StepId&)> before_step;
  /// Called immediately after each engine step (stuck-at re-pinning).
  std::function<void(HirschbergGca&, const StepId&)> after_step;
  /// Corruption detector, polled after every outer iteration: returns a
  /// non-empty diagnosis when monitors flagged the state since the last
  /// poll.  A ContractViolation escaping an iteration (e.g. a corrupted
  /// pointer read out of the field) is treated as the same kind of
  /// detection when recovery is enabled.
  std::function<std::string(const HirschbergGca&)> detect;
  /// End-of-run oracle over the final labeling; non-empty = corrupted.
  std::function<std::string(const HirschbergGca&,
                            const std::vector<graph::NodeId>&)>
      final_check;
  /// Called after a rollback or restart restored the field, so stateful
  /// monitors and injectors can resynchronise their baselines.
  std::function<void(HirschbergGca&)> on_restore;
  RecoveryPolicy recovery;

  // --- sparse resilience hooks (DESIGN.md §15) --------------------------
  //
  // The CSR-substrate counterparts of the dense step hooks above.  Any of
  // these (or `checkpoint_dir` / an enabled recovery policy) moves the
  // sparse solver from its link pass to the sync round loop.

  /// Called before every sparse round, after any checkpoint/anchor state
  /// was captured — the injection point for label corruption.
  std::function<void(const SparseRoundContext&)> sparse_before_round;
  /// Called after every sparse round — the injection point for stuck-at
  /// re-pinning and lost-update reverts.
  std::function<void(const SparseRoundContext&)> sparse_after_round;
  /// Per-round label-lattice monitors: every label in range and <= its
  /// vertex id, monotone non-increasing against the previous round, and
  /// root-reachable via a bounded pointer chase.  A violation is a
  /// detection: the recovery ladder handles it when enabled, otherwise the
  /// solve throws ContractViolation.  Fault injectors force this on.
  bool sparse_monitors = false;
  /// Build a spanning-forest certificate from the final labels and verify
  /// the labeling against it (graph/certificate.hpp, O(n + m)) — an
  /// independently checkable proof of correctness, strictly stronger than
  /// `self_check` auditing-wise (no solver re-run to trust).  A failed
  /// build or verify is a detection like any monitor violation.  Honoured
  /// by both substrates.
  bool certify = false;

  // --- process-resilience hooks (DESIGN.md §10) -------------------------

  /// Wall-clock budget for the whole run in milliseconds; 0 = unlimited.
  /// The deadline is polled at every sweep chunk boundary and an expiry
  /// throws `gca::DeadlineExceeded` with the field left on the last
  /// completed generation.  No cost when unset.
  std::int64_t deadline_ms = 0;
  /// External kill switch (non-owning; nullptr = none).  Tripping it from
  /// any thread aborts the run with `gca::Cancelled` at the next chunk
  /// boundary.
  gca::CancelToken* cancel = nullptr;
  /// Directory for durable checkpoints (empty = in-memory recovery only).
  /// When set, the run (a) resumes from an intact checkpoint found there —
  /// a corrupt one is rejected with a diagnosis and the run starts fresh —
  /// and (b) writes a checkpoint atomically at every checkpoint boundary
  /// (`recovery.checkpoint_interval` iterations; every iteration when
  /// recovery is disabled).  The file is removed on successful completion.
  /// Honoured by both substrates: the dense machine writes GCKP artifacts,
  /// the sparse CSR engine writes GSKP label-plane artifacts (per *round*
  /// rather than per iteration) — resuming either mid-run reproduces the
  /// bit-identical canonical labeling.
  std::string checkpoint_dir;
};

/// Result of a full run.
struct RunResult {
  std::vector<graph::NodeId> labels;  ///< min-id component label per node
  unsigned iterations = 0;            ///< outer iterations executed
  std::size_t generations = 0;        ///< engine steps executed (incl. gen 0
                                      ///< and any rolled-back re-execution)
  std::vector<StepRecord> records;    ///< filled iff options.instrument
  unsigned rollbacks = 0;             ///< checkpoint rollbacks performed
  unsigned restarts = 0;              ///< full restarts performed
  std::vector<std::string> diagnoses; ///< one entry per detected corruption
  bool resumed = false;               ///< run resumed from a durable checkpoint
  unsigned resume_iteration = 0;      ///< outer iteration the resume entered at
};

/// The GCA machine specialised to Hirschberg's algorithm.
///
/// Grain of use: either call `run()` for the whole algorithm, or drive it
/// manually (`initialize()` + `step_generation(...)`) for golden tests and
/// visualisation.
class HirschbergGca {
 public:
  /// Binds the machine to a graph (loads A into the cell field).
  explicit HirschbergGca(const graph::Graph& g);

  HirschbergGca(const HirschbergGca&) = delete;
  HirschbergGca& operator=(const HirschbergGca&) = delete;

  [[nodiscard]] graph::NodeId n() const { return n_; }
  [[nodiscard]] const gca::FieldGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const gca::Engine<Cell>& engine() const { return *engine_; }
  [[nodiscard]] gca::Engine<Cell>& engine() { return *engine_; }

  /// Executes the whole algorithm and returns the labeling.
  RunResult run(const RunOptions& options = {});

  // --- granular interface ---------------------------------------------

  /// Executes generation 0 (field initialisation).
  gca::GenerationStats initialize();

  /// Executes one generation (one sub-generation for generations 3/7/10).
  gca::GenerationStats step_generation(Generation g, unsigned subgeneration = 0);

  /// Per-step callbacks threaded through an iteration (all optional).
  struct StepHooks {
    std::function<void(const StepRecord&)> sink;
    std::function<void(HirschbergGca&, const StepId&)> before;
    std::function<void(HirschbergGca&, const StepId&)> after;
  };

  /// Executes one full outer iteration (generations 1..11 with all
  /// sub-generations); `sink` (optional) observes each step.
  void run_iteration(unsigned iteration,
                     const std::function<void(const StepRecord&)>& sink = {});

  /// As above, with fault-injection hooks around every step.
  void run_iteration(unsigned iteration, const StepHooks& hooks);

  /// The active region generation `g` (sub-generation `sub`) advertises to
  /// the engine — straight from the Figure-2 state machine: the exact set
  /// of cells whose rule can activate (full field, square, column 0, or
  /// the strided survivor set of a tree-reduction sub-generation).
  [[nodiscard]] gca::ActiveRegion region_for(Generation g, unsigned sub) const;

  /// Current C vector (column 0 of the square field).
  [[nodiscard]] std::vector<graph::NodeId> current_labels() const;

  /// Current d value at (row, col) — test/visualisation access.
  [[nodiscard]] std::uint32_t d_at(std::size_t row, std::size_t col) const;

  /// Snapshot of all d values (row-major, (n+1) x n) for rendering.
  [[nodiscard]] std::vector<std::uint64_t> d_snapshot() const;

  /// The input graph reconstructed from the adjacency bits in the field.
  [[nodiscard]] graph::Graph graph_from_field() const;

  // --- durable checkpoints (core/checkpoint.hpp) ------------------------

  /// The machine's full serialisable state: both SoA planes, the engine
  /// generation counter, and `next_iteration` as the state-machine
  /// position a resumed run enters at.
  [[nodiscard]] CheckpointData checkpoint_data(unsigned next_iteration) const;

  /// Restores the machine from checkpoint data (the inverse of
  /// `checkpoint_data`).  Validates that the data belongs to a machine of
  /// this size and that the iteration is within the schedule; returns
  /// kInvalidArgument with a diagnosis instead of loading a mismatched
  /// state.  On success `next_iteration` receives the iteration to resume
  /// at.
  [[nodiscard]] Status restore_from(const CheckpointData& data,
                                    unsigned& next_iteration);

 private:
  template <typename Rule>
  gca::GenerationStats step_with(Rule&& rule, const gca::ActiveRegion& region,
                                 Generation g, unsigned subgen);

  /// True when generations may dispatch to the bulk SoA kernels
  /// (gca/kernels.hpp) instead of the mediated uniform rule: sparse sweeps
  /// with no instrumentation, no access recording and no read override
  /// (the kernels bypass read mediation, so anything that observes
  /// individual reads forces the rule path).
  [[nodiscard]] bool fast_kernels_enabled() const;

  /// Exact worklist of the row-min sub-generation `sub` (offset 2^sub) —
  /// built lazily from a pooled scratch bitset, cached for the machine's
  /// lifetime (the active set depends only on n and sub, never on data).
  [[nodiscard]] const gca::Worklist& row_min_worklist(unsigned sub);
  /// Exact worklist of the column-0 cells (pointer jump).
  [[nodiscard]] const gca::Worklist& column_worklist();

  graph::NodeId n_;
  gca::FieldGeometry geometry_;
  std::unique_ptr<gca::Engine<Cell>> engine_;
  std::vector<gca::Worklist> row_min_worklists_;
  gca::Worklist column_worklist_;
};

/// One-call convenience: labels of `g` computed on the GCA.
[[nodiscard]] std::vector<graph::NodeId> gca_components(const graph::Graph& g);

}  // namespace gcalib::core
