// Deterministic fault injection for the sparse CSR substrate.
//
// The dense injector (fault/fault_plan.hpp) perturbs the (a, d, p) cell
// registers of the field; the CSR engine has no field — its whole mutable
// state is the label plane.  The sparse fault taxonomy therefore targets
// the label lattice of the sync round loop, which every injected solve
// runs on (the round hooks move a solve off the link pass):
//
//   * label bit flip — XOR a mask into one vertex's label (an SEU in the
//     label store).  A raised bit trips the per-round lattice monitors; a
//     *lowered* label silently merges two components and only the
//     spanning-forest certificate can convict it.
//   * stuck vertex — pin a vertex's label to a (lattice-legal) value for a
//     bounded number of rounds, re-applied after every sweep.  Monitors
//     cannot see a frozen label; the end-of-run certificate's edge-closure
//     check can.
//   * lost update — revert a vertex's label to its round-start value after
//     the round: the write that lowered it never landed.  Self-heals (the
//     next sweep re-lowers it); the run just converges later.
//
// Transient semantics, exactly as in the dense plan: every event fires at
// most once per arm cycle, so a recovery rollback re-executes the window
// fault-free — the property that makes the detect -> rollback ladder heal.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hirschberg_gca.hpp"
#include "graph/csr_graph.hpp"

namespace gcalib::fault {

/// The sparse fault taxonomy (DESIGN.md §15).
enum class SparseFaultSite : std::uint8_t {
  kLabelBitFlip,   ///< XOR a mask into one vertex's label
  kStuckVertex,    ///< pin a vertex's label for some rounds
  kLostUpdate,     ///< the round's update to a vertex never lands
};

[[nodiscard]] const char* to_string(SparseFaultSite site);

/// One injectable sparse fault.
struct SparseFaultEvent {
  SparseFaultSite site = SparseFaultSite::kLabelBitFlip;
  unsigned round = 0;          ///< hook/jump round it strikes at
  graph::NodeId vertex = 0;    ///< victim vertex
  std::uint32_t mask = 1;      ///< bits XORed by a label flip
  graph::NodeId stuck_value = 0;  ///< value a stuck vertex is pinned to
  unsigned stuck_rounds = 2;   ///< rounds the pin lasts (>= 1)
};

/// A reproducible collection of sparse fault events.
class SparseFaultPlan {
 public:
  SparseFaultPlan() = default;

  SparseFaultPlan& add(SparseFaultEvent event);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<SparseFaultEvent>& events() const {
    return events_;
  }

  /// Random plan over the round schedule of a size-n run: every round in
  /// the O(log n) convergence window draws k ~ Poisson(rate) faults with
  /// site, victim and perturbation chosen uniformly (seeded,
  /// bit-reproducible).  Stuck values are drawn lattice-legal
  /// (stuck_value <= vertex) so the pin itself is monitor-silent — the
  /// certificate is what convicts it.
  [[nodiscard]] static SparseFaultPlan poisson(graph::NodeId n, double rate,
                                               std::uint64_t seed);

 private:
  std::vector<SparseFaultEvent> events_;
};

/// Replays a SparseFaultPlan against a live solve via the sparse round
/// hooks.  `install` also forces `sparse_monitors` on: an injected label
/// can leave [0, n) and the monitors are the guard that keeps the round
/// bodies from indexing with it.  The injector must outlive every solve
/// whose options it was installed on (the hooks capture `this`).
class SparseInjector {
 public:
  explicit SparseInjector(SparseFaultPlan plan);

  /// Installs the injector's round hooks on `options`, chaining any hooks
  /// already present (existing hooks run first), and turns the per-round
  /// monitors on.
  void install(core::RunOptions& options);

  /// Events fired so far (each event fires at most once per arm cycle).
  [[nodiscard]] std::size_t faults_fired() const { return fired_; }

  /// Re-arms every event for a fresh solve.
  void reset();

 private:
  void before_round(const core::SparseRoundContext& ctx);
  void after_round(const core::SparseRoundContext& ctx);

  struct Armed {
    SparseFaultEvent event;
    bool fired = false;
  };
  struct Pin {
    graph::NodeId vertex = 0;
    graph::NodeId value = 0;
    unsigned remaining = 0;
  };
  struct Revert {
    graph::NodeId vertex = 0;
    graph::NodeId value = 0;
  };

  std::vector<Armed> events_;
  std::vector<Pin> pins_;
  std::vector<Revert> reverts_;
  std::size_t fired_ = 0;
};

}  // namespace gcalib::fault
