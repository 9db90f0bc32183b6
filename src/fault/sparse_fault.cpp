#include "fault/sparse_fault.hpp"

#include <cmath>
#include <utility>

#include "common/rng.hpp"

namespace gcalib::fault {

using graph::NodeId;

const char* to_string(SparseFaultSite site) {
  switch (site) {
    case SparseFaultSite::kLabelBitFlip: return "label-bit-flip";
    case SparseFaultSite::kStuckVertex: return "stuck-vertex";
    case SparseFaultSite::kLostUpdate: return "lost-update";
  }
  return "?";
}

SparseFaultPlan& SparseFaultPlan::add(SparseFaultEvent event) {
  GCALIB_EXPECTS(event.site != SparseFaultSite::kStuckVertex ||
                 event.stuck_rounds >= 1);
  events_.push_back(event);
  return *this;
}

namespace {

/// Knuth's Poisson sampler (fine for the small rates fault runs use).
std::size_t draw_poisson(Xoshiro256& rng, double rate) {
  const double limit = std::exp(-rate);
  std::size_t k = 0;
  double p = 1.0;
  do {
    p *= rng.uniform01();
    ++k;
  } while (p > limit);
  return k - 1;
}

}  // namespace

SparseFaultPlan SparseFaultPlan::poisson(NodeId n, double rate,
                                         std::uint64_t seed) {
  GCALIB_EXPECTS(n >= 1 && rate >= 0.0);
  SparseFaultPlan plan;
  Xoshiro256 rng(seed);
  // The convergence window of the hook/jump round loops: O(log n) rounds
  // (mirrors the solver's round guard).  Unlike the dense schedule, the
  // *actual* round count is input-dependent and usually far below the
  // guard, so strike rounds are drawn with a quadratic bias toward round 0
  // (round = floor(window * u^2)) — half the storm lands in the first
  // quarter of the window, where a real run still is.  Events landing past
  // the actual convergence round simply never fire — not an error.
  unsigned log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n && log2n < 31) ++log2n;
  const unsigned window = 2 * (log2n + 2) + 4;
  for (unsigned slot = 0; slot < window; ++slot) {
    const std::size_t count = draw_poisson(rng, rate);
    for (std::size_t f = 0; f < count; ++f) {
      const double u = rng.uniform01();
      SparseFaultEvent event;
      event.round = static_cast<unsigned>(window * u * u);
      event.vertex = static_cast<NodeId>(rng.below(n));
      switch (rng.below(3)) {
        case 0:
          event.site = SparseFaultSite::kLabelBitFlip;
          event.mask = std::uint32_t{1} << rng.below(32);
          break;
        case 1:
          event.site = SparseFaultSite::kStuckVertex;
          // Lattice-legal pin (stuck_value <= vertex): the monitors stay
          // silent and conviction falls to the certificate.
          event.stuck_value =
              static_cast<NodeId>(rng.below(std::uint64_t{event.vertex} + 1));
          event.stuck_rounds = 1 + static_cast<unsigned>(rng.below(3));
          break;
        default:
          event.site = SparseFaultSite::kLostUpdate;
          break;
      }
      plan.add(event);
    }
  }
  return plan;
}

// --- SparseInjector ----------------------------------------------------

SparseInjector::SparseInjector(SparseFaultPlan plan) {
  events_.reserve(plan.size());
  for (const SparseFaultEvent& event : plan.events()) {
    events_.push_back(Armed{event, false});
  }
}

void SparseInjector::install(core::RunOptions& options) {
  auto previous_before = std::move(options.sparse_before_round);
  options.sparse_before_round =
      [this, previous_before = std::move(previous_before)](
          const core::SparseRoundContext& ctx) {
        if (previous_before) previous_before(ctx);
        before_round(ctx);
      };
  auto previous_after = std::move(options.sparse_after_round);
  options.sparse_after_round =
      [this, previous_after = std::move(previous_after)](
          const core::SparseRoundContext& ctx) {
        after_round(ctx);
        if (previous_after) previous_after(ctx);
      };
  // An injected flip can push a label outside [0, n); the per-round
  // monitors are what keeps the sweep from indexing with it.  Injection
  // without monitors is not a supported configuration.
  options.sparse_monitors = true;
}

void SparseInjector::before_round(const core::SparseRoundContext& ctx) {
  for (Armed& armed : events_) {
    if (armed.fired || armed.event.round != ctx.round) continue;
    armed.fired = true;
    ++fired_;
    const SparseFaultEvent& event = armed.event;
    GCALIB_EXPECTS_MSG(event.vertex < ctx.n,
                       "sparse fault event addresses a vertex outside the graph");
    switch (event.site) {
      case SparseFaultSite::kLabelBitFlip:
        ctx.set(event.vertex, ctx.get(event.vertex) ^ event.mask);
        break;
      case SparseFaultSite::kStuckVertex:
        ctx.set(event.vertex, event.stuck_value);
        pins_.push_back(Pin{event.vertex, event.stuck_value,
                            event.stuck_rounds});
        break;
      case SparseFaultSite::kLostUpdate:
        // Record the round-start value; the after-round hook reverts to it,
        // as if the round's write to this vertex never landed.
        reverts_.push_back(Revert{event.vertex, ctx.get(event.vertex)});
        break;
    }
  }
}

void SparseInjector::after_round(const core::SparseRoundContext& ctx) {
  for (const Revert& revert : reverts_) {
    ctx.set(revert.vertex, revert.value);
  }
  reverts_.clear();
  // Stuck vertices overwrite whatever the round just computed.
  std::erase_if(pins_, [&ctx](Pin& pin) {
    ctx.set(pin.vertex, pin.value);
    return --pin.remaining == 0;
  });
}

void SparseInjector::reset() {
  for (Armed& armed : events_) armed.fired = false;
  pins_.clear();
  reverts_.clear();
  fired_ = 0;
}

}  // namespace gcalib::fault
