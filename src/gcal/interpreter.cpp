#include "gcal/interpreter.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "gca/engine.hpp"
#include "gca/field.hpp"
#include "gcal/analyzer.hpp"
#include "gcal/eval.hpp"
#include "gcal/parser.hpp"

namespace gcalib::gcal {

namespace {

/// Cell state: mirrors the native machine's (a, d, p); the infinity code
/// (kInfCode) matches core::kInfData so native and gcal fields are directly
/// comparable.
using Cell = CellView;
using Context = EvalContext;

}  // namespace

GcalRunResult Interpreter::run(const graph::Graph& g,
                               const GenerationHook& hook,
                               gca::EngineOptions exec,
                               gca::MetricsSink* sink,
                               std::int64_t deadline_ms) const {
  const graph::NodeId n = g.node_count();
  GcalRunResult result;
  if (n == 0) return result;

  const gca::FieldGeometry geometry = gca::FieldGeometry::hirschberg(n);
  std::vector<Cell> initial(geometry.size());
  for (graph::NodeId j = 0; j < n; ++j) {
    for (const graph::NodeId i : g.neighbors(j)) {
      initial[geometry.index_of(j, i)].a = 1;
    }
  }
  gca::Engine<Cell> engine(std::move(initial), exec.with_hands(1));
  // Engine is local to this run, so the sink stays attached for its whole
  // lifetime — no removal needed.
  if (sink != nullptr) engine.add_sink(sink);
  if (deadline_ms > 0) {
    engine.set_deadline_ns(gca::steady_deadline_ns(deadline_ms));
  }

  const auto snapshot = [&]() {
    std::vector<std::uint64_t> d(engine.size());
    for (std::size_t i = 0; i < d.size(); ++i) d[i] = engine.state(i).d;
    return d;
  };

  const unsigned subs = n > 1 ? log2_ceil(n) : 0;
  const unsigned subs_rows = log2_ceil(n + 1);
  const auto run_generation = [&](const GenerationDef& generation,
                                  std::size_t sub) {
    std::string label = generation.name;
    if (generation.repeat) label += ".sub" + std::to_string(sub);
    // The statically-lowered superset of the clause's active cells; under
    // the sparse sweep mode (EngineOptions default) the engine only visits
    // this region.  The per-cell `active` check below stays authoritative.
    const gca::ActiveRegion region =
        lower_active_region(*generation.active, n, sub);
    const gca::GenerationStats stats = engine.step(
        [&](std::size_t index, auto& read) -> std::optional<Cell> {
          Context ctx;
          ctx.n = n;
          ctx.index = index;
          ctx.row = geometry.row(index);
          ctx.col = geometry.col(index);
          ctx.sub = sub;
          ctx.self = &engine.state(index);
          if (evaluate(*generation.active, ctx) == 0) return std::nullopt;

          Cell next = *ctx.self;
          if (generation.pointer) {
            const Value target = evaluate(*generation.pointer, ctx);
            if (target < 0 ||
                static_cast<std::size_t>(target) >= engine.size()) {
              throw EvalError("pointer out of range in generation '" +
                                  generation.name + "'",
                              generation.line, 0);
            }
            ctx.global = &read(static_cast<std::size_t>(target));
            next.p = static_cast<std::uint64_t>(target);
          }
          const auto apply = [&](const Expr& op, std::uint64_t& slot) {
            const Value value = evaluate(op, ctx);
            if (value < 0) {
              throw EvalError("data operation produced a negative value in '" +
                                  generation.name + "'",
                              generation.line, 0);
            }
            slot = static_cast<std::uint64_t>(value);
          };
          // Evaluate both operations against the OLD state, then commit.
          std::uint64_t new_d = next.d;
          std::uint64_t new_e = next.e;
          if (generation.data) apply(*generation.data, new_d);
          if (generation.data_e) apply(*generation.data_e, new_e);
          next.d = new_d;
          next.e = new_e;
          return next;
        },
        region, label);
    ++result.generations;
    result.max_congestion = std::max(result.max_congestion, stats.max_congestion);
    if (hook) hook(label, snapshot());
  };

  const auto run_list = [&](const std::vector<GenerationDef>& generations) {
    for (const GenerationDef& generation : generations) {
      const std::size_t repeats =
          generation.repeat ? (generation.repeat_rows ? subs_rows : subs) : 1;
      for (std::size_t s = 0; s < repeats; ++s) run_generation(generation, s);
    }
  };

  run_list(program_.prologue);
  const unsigned iterations = n > 1 ? log2_ceil(n) : 0;
  for (unsigned iter = 0; iter < iterations; ++iter) {
    run_list(program_.loop);
  }

  result.iterations = iterations;
  result.labels.resize(n);
  for (graph::NodeId j = 0; j < n; ++j) {
    result.labels[j] =
        static_cast<graph::NodeId>(engine.state(geometry.index_of(j, 0)).d);
  }
  return result;
}

GcalRunResult run_gcal(const std::string& source, const graph::Graph& g) {
  const Program program = parse(source);
  return Interpreter(program).run(g);
}

const std::string& hirschberg_gcal_source() {
  static const std::string kSource = R"gcal(
# Hirschberg's connected-components algorithm on the GCA —
# the paper's Figure 2 as a gcal program (generation-6 pointer corrected,
# see DESIGN.md).
program hirschberg

generation init:
  active all
  d = row

loop:
  generation copy_c:                   # gen 1
    active all
    p = col * n
    d = dstar

  generation mask_neighbors:           # gen 2
    active square
    p = nn + row
    d = (d != dstar && a == 1) ? d : inf

  generation row_min repeat:           # gen 3
    active square && (col % (2 << sub)) == 0 && col + (1 << sub) < n
    p = index + (1 << sub)
    d = min(d, dstar)

  generation fallback_c:               # gen 4
    active square && col == 0
    p = nn + row
    d = d == inf ? dstar : d

  generation copy_t:                   # gen 5
    active square
    p = col * n
    d = dstar

  generation mask_members:             # gen 6
    active square
    p = nn + col
    d = (dstar == row && d != row) ? d : inf

  generation row_min2 repeat:          # gen 7
    active square && (col % (2 << sub)) == 0 && col + (1 << sub) < n
    p = index + (1 << sub)
    d = min(d, dstar)

  generation fallback_c2:              # gen 8
    active square && col == 0
    p = nn + row
    d = d == inf ? dstar : d

  generation adopt:                    # gen 9
    active all
    p = bottom ? col * n : row * n
    d = dstar

  generation jump repeat:              # gen 10
    active square && col == 0
    p = d * n
    d = dstar

  generation final_min:                # gen 11
    active square && col == 0
    p = d * n + 1
    d = min(d, dstar)
)gcal";
  return kSource;
}

const std::string& hirschberg_tree_gcal_source() {
  static const std::string kSource = R"gcal(
# Congestion-1 tree-broadcast variant of the Hirschberg machine
# (section 4's "tree-like manner"; mirrors core::HirschbergGcaTree).
# Uses the second register e as the broadcast landing slot; every static
# generation reads each target cell at most once.
program hirschberg_tree

generation init:
  active all
  d = row

loop:
  generation b1_seed:                  # (i,i) <- C(i) from (i,0)
    active square && row == col
    p = row * n
    d = dstar

  generation b1_double repeat rows:    # ring doubling down columns (n+1 rows)
    active (row + rows - col) % rows >= (1 << sub) && (row + rows - col) % rows < (2 << sub)
    p = ((row + rows - (1 << sub)) % rows) * n + col
    d = dstar

  generation b2_seed:                  # (j,j).e <- C(j) from D_N[j]
    active square && row == col
    p = nn + col
    e = dstar

  generation b2_double repeat:         # ring doubling along square rows
    active square && (col + n - row) % n >= (1 << sub) && (col + n - row) % n < (2 << sub)
    p = row * n + (col + n - (1 << sub)) % n
    e = estar

  generation mask_neighbors:           # local: no global read at all
    active square
    d = (d != e && a == 1) ? d : inf

  generation row_min repeat:
    active square && (col % (2 << sub)) == 0 && col + (1 << sub) < n
    p = index + (1 << sub)
    d = min(d, dstar)

  generation fallback_c:
    active square && col == 0
    p = nn + row
    d = d == inf ? dstar : d

  generation b3_seed:                  # (i,i) <- T(i) from (i,0)
    active square && row == col
    p = row * n
    d = dstar

  generation b3_double repeat:         # ring doubling over square rows only
    active square && (row + n - col) % n >= (1 << sub) && (row + n - col) % n < (2 << sub)
    p = ((row + n - (1 << sub)) % n) * n + col
    d = dstar

  generation b4_stage:                 # D_N stages C into e (local)
    active bottom
    e = d

  generation b4_double repeat rows:    # ring doubling up columns from D_N
    active (row + rows - n) % rows >= (1 << sub) && (row + rows - n) % rows < (2 << sub)
    p = ((row + rows - (1 << sub)) % rows) * n + col
    e = estar

  generation mask_members:             # local
    active square
    d = (e == row && d != row) ? d : inf

  generation row_min2 repeat:
    active square && (col % (2 << sub)) == 0 && col + (1 << sub) < n
    p = index + (1 << sub)
    d = min(d, dstar)

  generation fallback_c2:
    active square && col == 0
    p = nn + row
    d = d == inf ? dstar : d

  generation adopt_double repeat:      # row doubling from column 0
    active square && col >= (1 << sub) && col < (2 << sub)
    p = index - (1 << sub)
    d = dstar

  generation adopt_dn:                 # D_N[i] <- T(i) from (i,i)
    active bottom
    p = col * n + col
    d = dstar

  generation jump repeat:
    active square && col == 0
    p = d * n
    d = dstar

  generation final_min:
    active square && col == 0
    p = d * n + 1
    d = min(d, dstar)
)gcal";
  return kSource;
}

}  // namespace gcalib::gcal
