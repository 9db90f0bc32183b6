#include "core/hirschberg_gca.hpp"

#include <algorithm>
#include <utility>

#include "common/bits.hpp"
#include "core/cc_solver.hpp"
#include "core/schedule.hpp"
#include "core/state_graph.hpp"
#include "gca/kernels.hpp"
#include "graph/certificate.hpp"
#include "graph/labeling.hpp"

namespace gcalib::core {

using gca::GenerationStats;
using graph::NodeId;

namespace {

/// Builds the initial cell field: a zeroed field, then the 2m adjacency
/// bits of the square set from the neighbour lists; d/p start at 0
/// (generation 0 overwrites d anyway).
std::vector<Cell> build_field(const graph::Graph& g) {
  const NodeId n = g.node_count();
  const gca::FieldGeometry geometry = gca::FieldGeometry::hirschberg(n);
  std::vector<Cell> cells(geometry.size());
  for (NodeId j = 0; j < n; ++j) {
    for (const NodeId i : g.neighbors(j)) cells[geometry.index_of(j, i)].a = 1;
  }
  return cells;
}

/// Row-min offsets at or above this dispatch through the exact worklist
/// (occupancy <= 1/32 of the square); below it a contiguous sweep — the
/// rectangular window or the SIMD span kernel — wins on locality.
constexpr std::size_t kWorklistMinOffset = 16;

}  // namespace

HirschbergGca::HirschbergGca(const graph::Graph& g)
    : n_(g.node_count()),
      geometry_(gca::FieldGeometry::hirschberg(std::max<std::size_t>(n_, 1))),
      engine_(std::make_unique<gca::Engine<Cell>>(
          n_ > 0 ? build_field(g) : std::vector<Cell>(2),
          gca::EngineOptions{})) {}

template <typename Rule>
GenerationStats HirschbergGca::step_with(Rule&& rule,
                                         const gca::ActiveRegion& region,
                                         Generation g, unsigned subgen) {
  return engine_->step(std::forward<Rule>(rule), region,
                       generation_label(g, subgen));
}

GenerationStats HirschbergGca::initialize() {
  return step_generation(Generation::kInit, 0);
}

gca::ActiveRegion HirschbergGca::region_for(Generation g, unsigned sub) const {
  const std::size_t n = n_;
  if (n == 0) return gca::ActiveRegion::full(engine_->size());
  // Rows have pitch n; the square is rows [0, n), D_N is row n.
  const auto rows = [n](std::size_t row_begin, std::size_t row_end,
                        std::size_t col_begin, std::size_t col_end,
                        std::size_t col_step = 1) {
    return gca::ActiveRegion{row_begin, row_end, col_begin, col_end, col_step,
                             n};
  };
  switch (g) {
    case Generation::kInit:
    case Generation::kCopyCToRows:
    case Generation::kAdopt:
      return rows(0, n + 1, 0, n);  // whole field, D_N included
    case Generation::kMaskNeighbors:
    case Generation::kCopyTToRows:
    case Generation::kMaskMembers:
      return rows(0, n, 0, n);  // the square
    case Generation::kRowMin:
    case Generation::kRowMin2: {
      // Survivors of sub-generation `sub`: col % 2^(sub+1) == 0 with a
      // partner col + 2^sub still inside the row.
      const std::size_t offset = std::size_t{1} << sub;
      return rows(0, n, 0, offset < n ? n - offset : 0, 2 * offset);
    }
    case Generation::kFallback:
    case Generation::kFallback2:
    case Generation::kPointerJump:
    case Generation::kFinalMin:
      return rows(0, n, 0, 1);  // column 0 of the square
  }
  GCALIB_ASSERT_MSG(false, "unreachable generation");
  return gca::ActiveRegion::full(engine_->size());
}

bool HirschbergGca::fast_kernels_enabled() const {
  const gca::EngineOptions& options = engine_->options();
  return options.sweep == gca::SweepMode::kSparse && !options.instrumentation &&
         !options.record_access && !engine_->has_read_override();
}

gca::GenerationStats HirschbergGca::step_generation(Generation g,
                                                    unsigned subgeneration) {
  const std::size_t n = n_;
  const std::size_t nn = n * n;  // linear index of the first bottom-row cell
  const gca::FieldGeometry geo = geometry_;
  const gca::ActiveRegion region = region_for(g, subgeneration);

  // The O(n^2)-active generations dispatch to the bulk SoA kernels when
  // nothing needs to observe individual reads; *which* kernel runs —
  // scalar, AVX2, NEON; window, span or exact worklist — is a per-step
  // runtime decision through the registry (gca/kernel_registry.hpp).  The
  // mediated uniform rule below remains the reference semantics and the
  // only path under instrumentation, dense sweeps or fault interposers.
  if (n > 0 && fast_kernels_enabled()) {
    const gca::KernelTable& table =
        gca::kernel_table(engine_->options().kernels);
    const auto& immutable = engine_->soa_immutable();
    const auto& current = engine_->soa_current();
    auto& next = engine_->soa_next();
    const std::uint32_t* d = current.d.data();
    const std::uint32_t* p = current.p.data();
    std::uint32_t* d_out = next.d.data();
    std::uint32_t* p_out = next.p.data();
    const std::string label = generation_label(g, subgeneration);
    switch (g) {
      case Generation::kCopyCToRows:
      case Generation::kCopyTToRows: {
        const auto fn = table.column_broadcast;
        return engine_->step_bulk(
            region,
            [fn, n, d, d_out, p_out](std::size_t k_begin, std::size_t k_end) {
              fn(n, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kMaskNeighbors: {
        const std::uint64_t* a = immutable.a.words();
        const auto fn = table.mask_neighbors;
        return engine_->step_bulk(
            region,
            [fn, n, a, d, d_out, p_out](std::size_t k_begin,
                                        std::size_t k_end) {
              fn(n, kInfData, a, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kMaskMembers: {
        const auto fn = table.mask_members;
        return engine_->step_bulk(
            region,
            [fn, n, d, d_out, p_out](std::size_t k_begin, std::size_t k_end) {
              fn(n, kInfData, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kRowMin:
      case Generation::kRowMin2: {
        const std::size_t offset = std::size_t{1} << subgeneration;
        if (offset >= kWorklistMinOffset && offset < n) {
          // Low occupancy: enumerate exactly the active cells.
          const gca::Worklist& list = row_min_worklist(subgeneration);
          const std::uint32_t* indices = list.data();
          const auto fn = table.row_min_indexed;
          return engine_->step_bulk(
              list,
              [fn, offset, indices, d, d_out, p_out](std::size_t k_begin,
                                                     std::size_t k_end) {
                fn(offset, indices, d, d_out, p_out, k_begin, k_end);
              },
              label);
        }
        if (offset <= table.row_min_span_max_offset) {
          // High occupancy with a SIMD span kernel: contiguous sweep of
          // the square carrying d/p at inactive cells, committed by the
          // engine's complement swap; the stats still report the strided
          // window's count as active.
          const gca::ActiveRegion span{0, n, 0, n, 1, n};
          const auto fn = table.row_min_span;
          return engine_->step_bulk(
              span, region.count(),
              [fn, n, offset, d, p, d_out, p_out](std::size_t k_begin,
                                                  std::size_t k_end) {
                fn(n, offset, d, p, d_out, p_out, k_begin, k_end);
              },
              label);
        }
        const auto fn = table.row_min;
        return engine_->step_bulk(
            region,
            [fn, n, offset, d, d_out, p_out](std::size_t k_begin,
                                             std::size_t k_end) {
              fn(n, offset, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kAdopt: {
        const auto fn = table.adopt;
        return engine_->step_bulk(
            region,
            [fn, n, d, d_out, p_out](std::size_t k_begin, std::size_t k_end) {
              fn(n, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kPointerJump: {
        const std::size_t cells = engine_->size();
        const gca::Worklist& list = column_worklist();
        const std::uint32_t* indices = list.data();
        const auto fn = table.pointer_jump_indexed;
        return engine_->step_bulk(
            list,
            [fn, n, cells, indices, d, d_out, p_out](std::size_t k_begin,
                                                     std::size_t k_end) {
              fn(n, cells, indices, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kInit: {
        // Null on the scalar table: the golden reference keeps this on the
        // mediated per-cell rule (same for the three cases below).
        const auto fn = table.init;
        if (fn == nullptr) break;
        return engine_->step_bulk(
            region,
            [fn, n, d_out, p_out](std::size_t k_begin, std::size_t k_end) {
              fn(n, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kFallback:
      case Generation::kFallback2: {
        const auto fn = table.fallback_indexed;
        if (fn == nullptr) break;
        const gca::Worklist& list = column_worklist();
        const std::uint32_t* indices = list.data();
        return engine_->step_bulk(
            list,
            [fn, n, indices, d, d_out, p_out](std::size_t k_begin,
                                              std::size_t k_end) {
              fn(n, kInfData, indices, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
      case Generation::kFinalMin: {
        const auto fn = table.final_min_indexed;
        if (fn == nullptr) break;
        const std::size_t cells = engine_->size();
        const gca::Worklist& list = column_worklist();
        const std::uint32_t* indices = list.data();
        return engine_->step_bulk(
            list,
            [fn, n, cells, indices, d, d_out, p_out](std::size_t k_begin,
                                                     std::size_t k_end) {
              fn(n, cells, indices, d, d_out, p_out, k_begin, k_end);
            },
            label);
      }
    }
  }

  switch (g) {
    case Generation::kInit:
      // d <- row(index) for the whole field (initialising everything, not
      // just column 0, keeps the rule simple; the rest is overwritten in
      // generation 1 — paper, section 3).  No global read.
      return step_with(
          [this, geo](std::size_t index, auto& /*read*/) -> std::optional<Cell> {
            Cell next = engine_->state(index);
            next.d = static_cast<std::uint32_t>(geo.row(index));
            next.p = static_cast<std::uint32_t>(index);
            return next;
          },
          region, g, 0);

    case Generation::kCopyCToRows:
      // p = col(index) * n; d <- d*.  Copies C (column 0) into every row of
      // the whole field, including D_N.
      return step_with(
          [this, geo, n](std::size_t index, auto& read) -> std::optional<Cell> {
            const std::size_t p = geo.col(index) * n;
            Cell next = engine_->state(index);
            next.d = read(p).d;
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, 0);

    case Generation::kMaskNeighbors:
      // Square only.  p = n^2 + row; keep d iff (d != d* && A == 1).
      return step_with(
          [this, geo, nn](std::size_t index, auto& read) -> std::optional<Cell> {
            if (geo.in_bottom_row(index)) return std::nullopt;
            const std::size_t p = nn + geo.row(index);
            const Cell& global = read(p);
            Cell next;
            const Cell& self = engine_->state(index);
            next.a = self.a;
            next.d = (self.d != global.d && self.a == 1) ? self.d : kInfData;
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, 0);

    case Generation::kRowMin:
    case Generation::kRowMin2: {
      // Tree-reduction minimum within each square row; sub-generation s
      // combines cells col and col + 2^s.
      const std::size_t offset = std::size_t{1} << subgeneration;
      return step_with(
          [this, geo, n, offset](std::size_t index,
                                 auto& read) -> std::optional<Cell> {
            if (geo.in_bottom_row(index)) return std::nullopt;
            const std::size_t col = geo.col(index);
            if (col % (2 * offset) != 0 || col + offset >= n) return std::nullopt;
            const std::size_t p = index + offset;
            const Cell& partner = read(p);
            const Cell& self = engine_->state(index);
            Cell next = self;
            next.d = std::min(self.d, partner.d);
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, subgeneration);
    }

    case Generation::kFallback:
    case Generation::kFallback2:
      // Column 0 of the square: if the row minimum is infinity (no external
      // connection) restore C(j) from D_N[j].
      return step_with(
          [this, geo, nn](std::size_t index, auto& read) -> std::optional<Cell> {
            if (geo.in_bottom_row(index) || geo.col(index) != 0) {
              return std::nullopt;
            }
            const std::size_t p = nn + geo.row(index);
            const Cell& global = read(p);
            const Cell& self = engine_->state(index);
            Cell next = self;
            next.d = self.d == kInfData ? global.d : self.d;
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, 0);

    case Generation::kCopyTToRows:
      // Square only: p = col * n; d <- d*.  D_N keeps C.
      return step_with(
          [this, geo, n](std::size_t index, auto& read) -> std::optional<Cell> {
            if (geo.in_bottom_row(index)) return std::nullopt;
            const std::size_t p = geo.col(index) * n;
            const Cell& global = read(p);
            Cell next = engine_->state(index);  // a survives
            next.d = global.d;
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, 0);

    case Generation::kMaskMembers:
      // Square only.  p = n^2 + col (paper erratum: printed as n^2 + row;
      // see DESIGN.md).  d* = C(i); keep d = T(i) iff C(i) = j and T(i) != j.
      return step_with(
          [this, geo, nn](std::size_t index, auto& read) -> std::optional<Cell> {
            if (geo.in_bottom_row(index)) return std::nullopt;
            const std::size_t p = nn + geo.col(index);
            const Cell& global = read(p);
            const Cell& self = engine_->state(index);
            const auto row = static_cast<std::uint32_t>(geo.row(index));
            Cell next = self;
            next.d = (global.d == row && self.d != row) ? self.d : kInfData;
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, 0);

    case Generation::kAdopt:
      // Square: p = row * n (copy T(j) = column 0 across the row).
      // Bottom row: p = col * n (store T transposed: D_N[i] <- T(i)).
      return step_with(
          [this, geo, n](std::size_t index, auto& read) -> std::optional<Cell> {
            const std::size_t p = geo.in_bottom_row(index)
                                      ? geo.col(index) * n
                                      : geo.row(index) * n;
            const Cell& global = read(p);
            const Cell& self = engine_->state(index);
            Cell next = self;
            next.d = global.d;
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, 0);

    case Generation::kPointerJump:
      // Column 0 of the square; data-dependent pointer p = d * n, so the
      // cell reads C(C(j)) in one generation (paper's extended cells).
      return step_with(
          [this, geo, n](std::size_t index, auto& read) -> std::optional<Cell> {
            if (geo.in_bottom_row(index) || geo.col(index) != 0) {
              return std::nullopt;
            }
            const Cell& self = engine_->state(index);
            const std::size_t p = std::size_t{self.d} * n;
            const Cell& global = read(p);
            Cell next = self;
            next.d = global.d;
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, subgeneration);

    case Generation::kFinalMin:
      // Column 0 of the square; p = d * n + 1 reads T(C(j)) (columns >= 1
      // hold row-copies of T after generation 9);
      // d <- min(C(j), T(C(j))) — equivalent to HCS-1979's step 6.
      return step_with(
          [this, geo, n](std::size_t index, auto& read) -> std::optional<Cell> {
            if (geo.in_bottom_row(index) || geo.col(index) != 0) {
              return std::nullopt;
            }
            const Cell& self = engine_->state(index);
            const std::size_t p = std::size_t{self.d} * n + 1;
            const Cell& global = read(p);
            Cell next = self;
            next.d = std::min(self.d, global.d);
            next.p = static_cast<std::uint32_t>(p);
            return next;
          },
          region, g, 0);
  }
  GCALIB_ASSERT_MSG(false, "unreachable generation");
  return GenerationStats{};
}

void HirschbergGca::run_iteration(
    unsigned iteration, const std::function<void(const StepRecord&)>& sink) {
  run_iteration(iteration, StepHooks{sink, {}, {}});
}

void HirschbergGca::run_iteration(unsigned iteration, const StepHooks& hooks) {
  const unsigned subs = subgeneration_count(n_);
  static constexpr Generation kOrder[] = {
      Generation::kCopyCToRows, Generation::kMaskNeighbors,
      Generation::kRowMin,      Generation::kFallback,
      Generation::kCopyTToRows, Generation::kMaskMembers,
      Generation::kRowMin2,     Generation::kFallback2,
      Generation::kAdopt,       Generation::kPointerJump,
      Generation::kFinalMin};
  for (Generation g : kOrder) {
    const unsigned repeats = has_subgenerations(g) ? subs : 1;
    for (unsigned s = 0; s < repeats; ++s) {
      const StepId id{iteration, g, s};
      if (hooks.before) hooks.before(*this, id);
      GenerationStats stats = step_generation(g, s);
      if (hooks.after) hooks.after(*this, id);
      if (hooks.sink) hooks.sink(StepRecord{id, std::move(stats)});
    }
  }
}

const gca::Worklist& HirschbergGca::row_min_worklist(unsigned sub) {
  if (row_min_worklists_.empty()) {
    row_min_worklists_.resize(subgeneration_count(n_));
  }
  GCALIB_ASSERT_MSG(sub < row_min_worklists_.size(),
                    "row-min sub-generation outside the schedule");
  gca::Worklist& list = row_min_worklists_[sub];
  if (list.empty()) {  // geometry-only, so build once and cache (the
                       // region is never empty when this is reached)
    const gca::ActiveRegion region = region_for(Generation::kRowMin, sub);
    const std::size_t words = (n_ * n_ + 63) / 64;
    gca::ScratchLease<std::uint64_t> scratch(words);
    std::uint64_t* bits = scratch.data();
    std::fill_n(bits, words, std::uint64_t{0});
    region.for_each(0, region.count(), [bits](std::size_t i) {
      bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    });
    list.assign_from_bits(bits, words);
  }
  return list;
}

const gca::Worklist& HirschbergGca::column_worklist() {
  if (column_worklist_.empty()) {
    for (std::size_t j = 0; j < n_; ++j) {
      column_worklist_.push_back(static_cast<std::uint32_t>(j * n_));
    }
  }
  return column_worklist_;
}

/// Reconstructs the input graph from the adjacency bits stored in the cell
/// field (used by the self-check so no external graph reference is needed).
graph::Graph HirschbergGca::graph_from_field() const {
  graph::Graph g(n_);
  for (NodeId j = 0; j < n_; ++j) {
    for (NodeId i = j + 1; i < n_; ++i) {
      if (engine_->state(geometry_.index_of(j, i)).a == 1) g.add_edge(j, i);
    }
  }
  return g;
}

CheckpointData HirschbergGca::checkpoint_data(unsigned next_iteration) const {
  CheckpointData data;
  data.n = n_;
  data.iteration = next_iteration;
  data.generation = engine_->generation();
  data.a = engine_->soa_immutable().a.unpack();
  data.d = engine_->soa_current().d;
  data.p = engine_->soa_current().p;
  return data;
}

Status HirschbergGca::restore_from(const CheckpointData& data,
                                   unsigned& next_iteration) {
  const auto reject = [](std::string message) {
    return Status::error(StatusCode::kInvalidArgument,
                         "checkpoint restore: " + std::move(message));
  };
  if (n_ == 0) return reject("machine has no nodes");
  if (data.n != n_) {
    return reject("data is for n = " + std::to_string(data.n) +
                  ", this machine has n = " + std::to_string(n_));
  }
  const std::size_t cells = engine_->size();
  if (data.a.size() != cells || data.d.size() != cells ||
      data.p.size() != cells) {
    return reject("plane sizes do not match the field");
  }
  if (data.iteration > outer_iterations(n_)) {
    return reject("iteration " + std::to_string(data.iteration) +
                  " is beyond the schedule of n = " + std::to_string(n_));
  }
  gca::Engine<Cell>::Snapshot snap;
  snap.cells.immutable.a = gca::BitPlane::pack(data.a);
  snap.cells.current.d = data.d;
  snap.cells.current.p = data.p;
  snap.generation = data.generation;
  engine_->restore(snap);
  next_iteration = data.iteration;
  return Status{};
}

RunResult HirschbergGca::run(const RunOptions& options) {
  RunResult result;
  engine_->set_options(gca::EngineOptions{}
                           .with_hands(engine_->hands())
                           .with_threads(options.threads)
                           .with_policy(options.threads > 1
                                            ? options.policy
                                            : gca::ExecutionPolicy::kSequential)
                           .with_instrumentation(options.instrument)
                           .with_record_access(options.record_access)
                           .with_sweep(options.sweep)
                           .with_kernels(options.kernels));

  if (n_ == 0) return result;

  // Install the stop signals for the duration of the run (detached on
  // every exit path — including a Cancelled/DeadlineExceeded unwind — so
  // the machine can be re-run with a fresh budget).
  struct StopGuard {
    gca::Engine<Cell>* engine = nullptr;
    ~StopGuard() {
      if (engine != nullptr) {
        engine->set_cancel_token(nullptr);
        engine->set_deadline_ns(0);
      }
    }
  } stop_guard;
  if (options.deadline_ms > 0 || options.cancel != nullptr) {
    stop_guard.engine = engine_.get();
    if (options.deadline_ms > 0) {
      engine_->set_deadline_ns(gca::steady_deadline_ns(options.deadline_ms));
    }
    if (options.cancel != nullptr) engine_->set_cancel_token(options.cancel);
  }

  // Attach the metrics sink for the duration of the run (detached on every
  // exit path, so a machine can be re-run with different options).
  struct SinkGuard {
    gca::Engine<Cell>* engine = nullptr;
    std::size_t id = 0;
    ~SinkGuard() {
      if (engine != nullptr) engine->remove_sink(id);
    }
  } sink_guard;
  if (options.sink != nullptr) {
    sink_guard.id = engine_->add_sink(options.sink);
    sink_guard.engine = engine_.get();
  }

  const auto emit = [&](const StepRecord& record) {
    if (options.instrument) result.records.push_back(record);
    if (options.on_step) options.on_step(record);
    ++result.generations;
  };
  const StepHooks hooks{emit, options.before_step, options.after_step};

  // Durable-checkpoint setup: an intact checkpoint in `checkpoint_dir`
  // replaces generation 0 entirely (the killed process's progress resumes
  // mid-algorithm); a torn or mismatched one is rejected with a diagnosis
  // and the run starts fresh — corrupt state is never silently loaded.
  std::string durable_path =
      options.checkpoint_dir.empty()
          ? std::string{}
          : checkpoint_path_in(options.checkpoint_dir);
  if (!durable_path.empty()) {
    // Create-or-fail-fast: a missing directory is created here, and an
    // unusable one yields a single clean diagnosis up front — the run then
    // proceeds degraded (no durability) instead of hitting an opaque
    // rename error at every checkpoint boundary.
    const Status usable = ensure_checkpoint_dir(options.checkpoint_dir);
    if (!usable.ok()) {
      result.diagnoses.push_back("durable checkpoints disabled: " +
                                 usable.message);
      durable_path.clear();
    }
  }
  unsigned start_iteration = 0;
  if (!durable_path.empty()) {
    CheckpointData data;
    const Status loaded = load_checkpoint_file(durable_path, data);
    if (loaded.ok()) {
      const Status restored = restore_from(data, start_iteration);
      if (restored.ok()) {
        result.resumed = true;
        result.resume_iteration = start_iteration;
      } else {
        result.diagnoses.push_back("durable checkpoint rejected: " +
                                   restored.message);
      }
    } else if (loaded.code != StatusCode::kNotFound) {
      result.diagnoses.push_back("durable checkpoint rejected: " +
                                 loaded.message);
    }
  }

  // Generation 0 (the injection hooks cover it too: a fault here corrupts
  // the field before the initial snapshot is taken, which is the one kind
  // of corruption checkpoint recovery cannot undo).  Skipped on a durable
  // resume — the restored field already is a post-initialisation state.
  if (!result.resumed) {
    const StepId id{0, Generation::kInit, 0};
    if (hooks.before) hooks.before(*this, id);
    GenerationStats stats = step_generation(Generation::kInit, 0);
    if (hooks.after) hooks.after(*this, id);
    emit(StepRecord{id, std::move(stats)});
  }

  const unsigned iterations = outer_iterations(n_);
  const RecoveryPolicy& policy = options.recovery;
  const bool recovery = policy.enabled();

  // Checkpoints.  `initial` (the post-initialisation — or just-resumed —
  // state) doubles as the restart anchor; `checkpoint` advances every
  // `checkpoint_interval` completed-and-clean outer iterations.  The
  // durable file mirrors the in-memory cadence (every iteration when
  // recovery is off) and is written atomically, so a crash at any moment
  // leaves an intact resume anchor on disk.
  gca::Engine<Cell>::Snapshot initial;
  gca::Engine<Cell>::Snapshot checkpoint;
  unsigned checkpoint_iteration = start_iteration;
  if (recovery) {
    initial = engine_->snapshot();
    checkpoint = initial;
  }
  const unsigned durable_interval =
      recovery ? policy.checkpoint_interval : 1;
  const auto write_durable = [&](unsigned next_iteration) {
    if (durable_path.empty()) return;
    const Status saved =
        save_checkpoint_file(durable_path, checkpoint_data(next_iteration));
    if (!saved.ok()) {
      // Degraded but correct: the run continues, it just cannot resume
      // from this point after a crash.
      result.diagnoses.push_back("durable checkpoint write failed: " +
                                 saved.message);
    }
  };
  if (!result.resumed) write_durable(start_iteration);
  if (result.resumed && options.on_restore) options.on_restore(*this);

  std::size_t previous_components = n_;
  unsigned iter = start_iteration;

  // Escalation ladder: rollback to the latest checkpoint while the budget
  // lasts, then restart from the initial snapshot, then fail with the full
  // diagnosis history.  Each recovery resets the detectors via on_restore.
  const auto recover = [&](const std::string& diagnosis) {
    result.diagnoses.push_back(diagnosis);
    if (!recovery) {
      throw ContractViolation(
          "corruption detected with recovery disabled — " + diagnosis);
    }
    if (result.rollbacks < policy.max_rollbacks) {
      ++result.rollbacks;
      engine_->restore(checkpoint);
      iter = checkpoint_iteration;
    } else if (result.restarts < policy.max_restarts) {
      ++result.restarts;
      engine_->restore(initial);
      checkpoint = initial;
      checkpoint_iteration = start_iteration;
      iter = start_iteration;
    } else {
      std::string history;
      for (const std::string& d : result.diagnoses) {
        if (!history.empty()) history += "; ";
        history += d;
      }
      throw ContractViolation("fault recovery exhausted (" +
                              std::to_string(result.rollbacks) +
                              " rollbacks, " +
                              std::to_string(result.restarts) +
                              " restarts): " + history);
    }
    previous_components = n_;
    if (options.on_restore) options.on_restore(*this);
  };

  while (true) {
    if (iter < iterations) {
      std::string diagnosis;
      try {
        run_iteration(iter, hooks);
        if (options.detect) diagnosis = options.detect(*this);
      } catch (const ContractViolation& trap) {
        // A corrupted pointer walking off the field (or any other contract
        // trap) is itself a detection: recover instead of crashing.
        if (!recovery) throw;
        diagnosis = std::string("contract trap: ") + trap.what();
      }
      if (!diagnosis.empty()) {
        recover(diagnosis);
        continue;
      }
      if (options.self_check) {
        const std::vector<NodeId> labels = current_labels();
        std::size_t components = 0;
        std::vector<std::uint8_t> seen(n_, 0);
        for (NodeId label : labels) {
          GCALIB_ASSERT_MSG(label < n_, "self-check: label out of range");
          if (!seen[label]) {
            seen[label] = 1;
            ++components;
          }
        }
        GCALIB_ASSERT_MSG(components <= previous_components,
                          "self-check: component count increased");
        previous_components = components;
      }
      ++iter;
      if (recovery && iter < iterations &&
          iter % policy.checkpoint_interval == 0) {
        checkpoint = engine_->snapshot();
        checkpoint_iteration = iter;
      }
      if (iter < iterations && iter % durable_interval == 0) {
        write_durable(iter);
      }
      continue;
    }

    result.labels = current_labels();
    if (options.final_check) {
      const std::string diagnosis = options.final_check(*this, result.labels);
      if (!diagnosis.empty()) {
        recover("end-of-run oracle: " + diagnosis);
        continue;
      }
    }
    break;
  }

  // A completed run retires its durable anchor so the next fresh run on
  // this directory starts from generation 0 instead of a stale state.
  if (!durable_path.empty()) remove_checkpoint_file(durable_path);

  result.iterations = iterations;

  if (options.self_check) {
    const graph::Graph g = graph_from_field();
    GCALIB_ASSERT_MSG(graph::is_valid_min_labeling(g, result.labels),
                      "self-check: final labeling disagrees with the oracle");
  }
  return result;
}

std::vector<NodeId> HirschbergGca::current_labels() const {
  std::vector<NodeId> labels(n_);
  for (NodeId j = 0; j < n_; ++j) {
    labels[j] = engine_->state(geometry_.index_of(j, 0)).d;
  }
  return labels;
}

std::uint32_t HirschbergGca::d_at(std::size_t row, std::size_t col) const {
  return engine_->state(geometry_.index_of(row, col)).d;
}

std::vector<std::uint64_t> HirschbergGca::d_snapshot() const {
  std::vector<std::uint64_t> out(geometry_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = engine_->state(i).d;
  }
  return out;
}

std::vector<NodeId> gca_components(const graph::Graph& g) {
  HirschbergGca machine(g);
  RunOptions options;
  options.instrument = false;
  return machine.run(options).labels;
}

namespace {

/// The paper-faithful engine behind the CcSolver interface: one
/// `HirschbergGca` machine per query.  Honours every RunOptions hook — this
/// is the engine the fault-recovery ladder, durable checkpoints and access
/// recording were built around.  Defined here rather than in cc_solver.cpp
/// so that only binaries calling `dense_cc_solver()` link the field.
class DenseFieldSolver final : public CcSolver {
 public:
  [[nodiscard]] const char* name() const override { return "dense-field"; }

  [[nodiscard]] QueryResult solve(const SolverInput& input,
                                  const RunOptions& options) const override {
    QueryResult result;
    if (input.node_count() == 0) return result;
    HirschbergGca machine(input.dense());
    RunResult run = machine.run(options);
    result.components = graph::component_count(run.labels);
    result.labels = std::move(run.labels);
    result.generations = run.generations;
    result.rollbacks = run.rollbacks;
    result.restarts = run.restarts;
    result.diagnoses = std::move(run.diagnoses);
    result.resumed = run.resumed;
    result.resume_round = run.resume_iteration;
    result.sweeps.reserve(run.records.size());
    for (StepRecord& record : run.records) {
      result.sweeps.push_back(std::move(record.stats));
    }
    if (options.certify) {
      // The field holds n^2 cells, so materialising the O(n + m) CSR view
      // for the certificate is cheap next to the run itself.
      const graph::CsrGraph& csr = input.csr();
      graph::ForestCertificate certificate;
      Status status = build_certificate(csr, result.labels, certificate);
      if (status.ok()) {
        status = verify_certificate(csr, result.labels, result.components,
                                    certificate);
      }
      if (!status.ok()) throw ContractViolation(status.message);
      result.certified = true;
    }
    return result;
  }
};

}  // namespace

const CcSolver& dense_cc_solver() {
  static const DenseFieldSolver solver;
  return solver;
}

}  // namespace gcalib::core
