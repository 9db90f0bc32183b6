#include "core/hirschberg_tree.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "core/schedule.hpp"

namespace gcalib::core {

using gca::GenerationStats;
using graph::NodeId;

namespace {

std::vector<TreeCell> build_field(const graph::Graph& g) {
  const NodeId n = g.node_count();
  const gca::FieldGeometry geometry = gca::FieldGeometry::hirschberg(n);
  std::vector<TreeCell> cells(geometry.size());
  for (NodeId j = 0; j < n; ++j) {
    for (const NodeId i : g.neighbors(j)) cells[geometry.index_of(j, i)].a = 1;
  }
  return cells;
}

}  // namespace

HirschbergGcaTree::HirschbergGcaTree(const graph::Graph& g)
    : n_(g.node_count()),
      geometry_(gca::FieldGeometry::hirschberg(std::max<std::size_t>(n_, 1))),
      engine_(std::make_unique<gca::Engine<TreeCell>>(
          n_ > 0 ? build_field(g) : std::vector<TreeCell>(2),
          gca::EngineOptions{})) {}

template <typename Rule>
void HirschbergGcaTree::static_step(TreeRunResult& result, Rule&& rule,
                                    const char* label) {
  const GenerationStats stats = engine_->step(std::forward<Rule>(rule), label);
  ++result.generations;
  result.static_max_congestion =
      std::max(result.static_max_congestion, stats.max_congestion);
}

template <typename Rule>
void HirschbergGcaTree::dynamic_step(TreeRunResult& result, Rule&& rule,
                                     const char* label) {
  const GenerationStats stats = engine_->step(std::forward<Rule>(rule), label);
  ++result.generations;
  result.dynamic_max_congestion =
      std::max(result.dynamic_max_congestion, stats.max_congestion);
}

void HirschbergGcaTree::broadcast_c_into_columns(TreeRunResult& result) {
  const std::size_t n = n_;
  const std::size_t rows = n + 1;
  const auto geo = geometry_;
  // Seed: cell (i, i) fetches C(i) from (i, 0); every target is read once.
  static_step(
      result,
      [this, geo](std::size_t index, auto& read) -> std::optional<TreeCell> {
        if (geo.in_bottom_row(index) || geo.row(index) != geo.col(index)) {
          return std::nullopt;
        }
        TreeCell next = engine_->state(index);
        const std::size_t p = geo.index_of(geo.row(index), 0);
        next.d = read(p).d;
        next.p = static_cast<std::uint32_t>(p);
        return next;
      },
      "tree.b1:seed");
  // Ring doubling down each column (anchor row = column index), covering
  // all n+1 rows including D_N.
  for (unsigned s = 0; (std::size_t{1} << s) < rows; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    static_step(
        result,
        [this, geo, rows, offset](std::size_t index,
                                  auto& read) -> std::optional<TreeCell> {
          const std::size_t dist =
              (geo.row(index) + rows - geo.col(index)) % rows;
          if (dist < offset || dist >= 2 * offset) return std::nullopt;
          const std::size_t src_row = (geo.row(index) + rows - offset) % rows;
          const std::size_t p = geo.index_of(src_row, geo.col(index));
          TreeCell next = engine_->state(index);
          next.d = read(p).d;
          next.p = static_cast<std::uint32_t>(p);
          return next;
        },
        "tree.b1:double");
  }
}

void HirschbergGcaTree::broadcast_row_c_and_mask(TreeRunResult& result) {
  const std::size_t n = n_;
  const auto geo = geometry_;
  // Seed: (j, j) fetches C(j) from D_N[j] into e.
  static_step(
      result,
      [this, geo, n](std::size_t index, auto& read) -> std::optional<TreeCell> {
        if (geo.in_bottom_row(index) || geo.row(index) != geo.col(index)) {
          return std::nullopt;
        }
        TreeCell next = engine_->state(index);
        const std::size_t p = geo.index_of(n, geo.col(index));
        next.e = read(p).d;
        next.p = static_cast<std::uint32_t>(p);
        return next;
      },
      "tree.b2:seed");
  // Ring doubling along each square row (anchor column = row index).
  for (unsigned s = 0; (std::size_t{1} << s) < n; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    static_step(
        result,
        [this, geo, n, offset](std::size_t index,
                               auto& read) -> std::optional<TreeCell> {
          if (geo.in_bottom_row(index)) return std::nullopt;
          const std::size_t dist = (geo.col(index) + n - geo.row(index)) % n;
          if (dist < offset || dist >= 2 * offset) return std::nullopt;
          const std::size_t src_col = (geo.col(index) + n - offset) % n;
          const std::size_t p = geo.index_of(geo.row(index), src_col);
          TreeCell next = engine_->state(index);
          next.e = read(p).e;
          next.p = static_cast<std::uint32_t>(p);
          return next;
        },
        "tree.b2:double");
  }
  // Local mask — no global read at all.
  static_step(
      result,
      [this, geo](std::size_t index, auto&) -> std::optional<TreeCell> {
        if (geo.in_bottom_row(index)) return std::nullopt;
        TreeCell next = engine_->state(index);
        next.d = (next.d != next.e && next.a == 1) ? next.d : kTreeInf;
        return next;
      },
      "tree.mask-neighbors(local)");
}

void HirschbergGcaTree::row_min(TreeRunResult& result) {
  const std::size_t n = n_;
  const auto geo = geometry_;
  const unsigned subs = subgeneration_count(n);
  for (unsigned s = 0; s < subs; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    static_step(
        result,
        [this, geo, n, offset](std::size_t index,
                               auto& read) -> std::optional<TreeCell> {
          if (geo.in_bottom_row(index)) return std::nullopt;
          const std::size_t col = geo.col(index);
          if (col % (2 * offset) != 0 || col + offset >= n) return std::nullopt;
          const std::size_t p = index + offset;
          TreeCell next = engine_->state(index);
          next.d = std::min(next.d, read(p).d);
          next.p = static_cast<std::uint32_t>(p);
          return next;
        },
        "tree.row-min");
  }
}

void HirschbergGcaTree::fallback(TreeRunResult& result) {
  const std::size_t n = n_;
  const auto geo = geometry_;
  static_step(
      result,
      [this, geo, n](std::size_t index, auto& read) -> std::optional<TreeCell> {
        if (geo.in_bottom_row(index) || geo.col(index) != 0) return std::nullopt;
        const std::size_t p = geo.index_of(n, geo.row(index));
        const TreeCell& global = read(p);
        TreeCell next = engine_->state(index);
        next.d = next.d == kTreeInf ? global.d : next.d;
        next.p = static_cast<std::uint32_t>(p);
        return next;
      },
      "tree.fallback");
}

void HirschbergGcaTree::broadcast_t_into_columns(TreeRunResult& result) {
  const std::size_t n = n_;
  const auto geo = geometry_;
  // Seed: (i, i) fetches T(i) from (i, 0); square only, D_N keeps C.
  static_step(
      result,
      [this, geo](std::size_t index, auto& read) -> std::optional<TreeCell> {
        if (geo.in_bottom_row(index) || geo.row(index) != geo.col(index)) {
          return std::nullopt;
        }
        TreeCell next = engine_->state(index);
        const std::size_t p = geo.index_of(geo.row(index), 0);
        next.d = read(p).d;
        next.p = static_cast<std::uint32_t>(p);
        return next;
      },
      "tree.b3:seed");
  // Ring doubling over the n square rows only.
  for (unsigned s = 0; (std::size_t{1} << s) < n; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    static_step(
        result,
        [this, geo, n, offset](std::size_t index,
                               auto& read) -> std::optional<TreeCell> {
          if (geo.in_bottom_row(index)) return std::nullopt;
          const std::size_t dist = (geo.row(index) + n - geo.col(index)) % n;
          if (dist < offset || dist >= 2 * offset) return std::nullopt;
          const std::size_t src_row = (geo.row(index) + n - offset) % n;
          const std::size_t p = geo.index_of(src_row, geo.col(index));
          TreeCell next = engine_->state(index);
          next.d = read(p).d;
          next.p = static_cast<std::uint32_t>(p);
          return next;
        },
        "tree.b3:double");
  }
}

void HirschbergGcaTree::broadcast_col_c_and_mask(TreeRunResult& result) {
  const std::size_t n = n_;
  const std::size_t rows = n + 1;
  const auto geo = geometry_;
  // Stage: D_N copies its own d (= C) into e so the ring can travel in e.
  // A purely local operation.
  static_step(
      result,
      [this, geo](std::size_t index, auto&) -> std::optional<TreeCell> {
        if (!geo.in_bottom_row(index)) return std::nullopt;
        TreeCell next = engine_->state(index);
        next.e = next.d;
        return next;
      },
      "tree.b4:stage");
  // Ring doubling up each column, anchored at the bottom row.
  for (unsigned s = 0; (std::size_t{1} << s) < rows; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    static_step(
        result,
        [this, geo, rows, offset, n](std::size_t index,
                                     auto& read) -> std::optional<TreeCell> {
          const std::size_t dist = (geo.row(index) + rows - n) % rows;
          if (dist < offset || dist >= 2 * offset) return std::nullopt;
          const std::size_t src_row = (geo.row(index) + rows - offset) % rows;
          const std::size_t p = geo.index_of(src_row, geo.col(index));
          TreeCell next = engine_->state(index);
          next.e = read(p).e;
          next.p = static_cast<std::uint32_t>(p);
          return next;
        },
        "tree.b4:double");
  }
  // Local mask: keep T(i) iff C(i) = row and T(i) != row.
  static_step(
      result,
      [this, geo](std::size_t index, auto&) -> std::optional<TreeCell> {
        if (geo.in_bottom_row(index)) return std::nullopt;
        const auto row = static_cast<std::uint32_t>(geo.row(index));
        TreeCell next = engine_->state(index);
        next.d = (next.e == row && next.d != row) ? next.d : kTreeInf;
        return next;
      },
      "tree.mask-members(local)");
}

void HirschbergGcaTree::adopt(TreeRunResult& result) {
  const std::size_t n = n_;
  const auto geo = geometry_;
  // Row doubling from column 0 (plain distances, no ring needed).
  for (unsigned s = 0; (std::size_t{1} << s) < n; ++s) {
    const std::size_t offset = std::size_t{1} << s;
    static_step(
        result,
        [this, geo, offset](std::size_t index,
                            auto& read) -> std::optional<TreeCell> {
          if (geo.in_bottom_row(index)) return std::nullopt;
          const std::size_t col = geo.col(index);
          if (col < offset || col >= 2 * offset) return std::nullopt;
          const std::size_t p = index - offset;
          TreeCell next = engine_->state(index);
          next.d = read(p).d;
          next.p = static_cast<std::uint32_t>(p);
          return next;
        },
        "tree.adopt:double");
  }
  // D_N fetch: (n, i) <- (i, i) — the transposed store of T.
  static_step(
      result,
      [this, geo](std::size_t index, auto& read) -> std::optional<TreeCell> {
        if (!geo.in_bottom_row(index)) return std::nullopt;
        const std::size_t i = geo.col(index);
        const std::size_t p = geo.index_of(i, i);
        TreeCell next = engine_->state(index);
        next.d = read(p).d;
        next.p = static_cast<std::uint32_t>(p);
        return next;
      },
      "tree.adopt:dn-fetch");
}

void HirschbergGcaTree::pointer_jump(TreeRunResult& result) {
  const std::size_t n = n_;
  const auto geo = geometry_;
  const unsigned subs = subgeneration_count(n);
  for (unsigned s = 0; s < subs; ++s) {
    dynamic_step(
        result,
        [this, geo, n](std::size_t index, auto& read) -> std::optional<TreeCell> {
          if (geo.in_bottom_row(index) || geo.col(index) != 0) {
            return std::nullopt;
          }
          TreeCell next = engine_->state(index);
          const std::size_t p = std::size_t{next.d} * n;
          next.d = read(p).d;
          next.p = static_cast<std::uint32_t>(p);
          return next;
        },
        "tree.jump");
  }
}

void HirschbergGcaTree::final_min(TreeRunResult& result) {
  const std::size_t n = n_;
  const auto geo = geometry_;
  dynamic_step(
      result,
      [this, geo, n](std::size_t index, auto& read) -> std::optional<TreeCell> {
        if (geo.in_bottom_row(index) || geo.col(index) != 0) return std::nullopt;
        TreeCell next = engine_->state(index);
        const std::size_t p = std::size_t{next.d} * n + 1;
        next.d = std::min(next.d, read(p).d);
        next.p = static_cast<std::uint32_t>(p);
        return next;
      },
      "tree.final-min");
}

TreeRunResult HirschbergGcaTree::run(bool instrument) {
  TreeRunResult result;
  engine_->set_options(
      gca::EngineOptions{engine_->options()}.with_instrumentation(
          instrument));
  if (n_ == 0) return result;

  const auto geo = geometry_;
  // Generation 0, unchanged from the baseline: d <- row(index), local.
  static_step(
      result,
      [this, geo](std::size_t index, auto&) -> std::optional<TreeCell> {
        TreeCell next = engine_->state(index);
        next.d = static_cast<std::uint32_t>(geo.row(index));
        next.p = static_cast<std::uint32_t>(index);
        return next;
      },
      "tree.init");

  const unsigned iterations = outer_iterations(n_);
  for (unsigned iter = 0; iter < iterations; ++iter) {
    broadcast_c_into_columns(result);
    broadcast_row_c_and_mask(result);
    row_min(result);
    fallback(result);
    broadcast_t_into_columns(result);
    broadcast_col_c_and_mask(result);
    row_min(result);
    fallback(result);
    adopt(result);
    pointer_jump(result);
    final_min(result);
  }

  result.iterations = iterations;
  result.labels.resize(n_);
  for (NodeId j = 0; j < n_; ++j) {
    result.labels[j] = engine_->state(geometry_.index_of(j, 0)).d;
  }
  return result;
}

std::size_t HirschbergGcaTree::total_generations(std::size_t n) {
  if (n <= 1) return 1;
  const std::size_t lg = log2_ceil(n);
  const std::size_t lg_rows = log2_ceil(n + 1);
  // b1: 1 + lg_rows; b2: 1 + lg + 1; rowmin: lg; fallback: 1;
  // b3: 1 + lg; b4: 1 + lg_rows + 1; rowmin2: lg; fallback2: 1;
  // adopt: lg + 1; jump: lg; final: 1.
  const std::size_t per_iteration =
      (1 + lg_rows) + (2 + lg) + lg + 1 + (1 + lg) + (2 + lg_rows) + lg + 1 +
      (lg + 1) + lg + 1;
  return 1 + log2_ceil(n) * per_iteration;
}

std::vector<NodeId> gca_tree_components(const graph::Graph& g) {
  HirschbergGcaTree machine(g);
  return machine.run(/*instrument=*/false).labels;
}

}  // namespace gcalib::core
