// Transitive closure on the GCA.
//
// The paper's reference [5] — Hirschberg, STOC 1976 — is titled "Parallel
// algorithms for the transitive closure AND the connected component
// problems"; the connected-components mapping reproduced in core/ covers
// the second half, and this module covers the first as the natural
// companion (also the paper's stated future work: "more elaborate PRAM
// algorithms").
//
// Algorithm: repeated Boolean squaring of R = A | I.  After ceil(lg n)
// squarings R is the reflexive-transitive closure.  GCA mapping: n^2 cells,
// cell (i, j) holds the bit R(i, j); one squaring runs n sub-generations,
// in sub-generation k cell (i, j) reads R(i, k) and R(k, j) and ORs their
// conjunction into an accumulator.  This needs a *two-handed* GCA — a
// deliberate contrast to the one-handed connected-components machine,
// exercising the k-handed dimension of the model (the paper: "one handed
// if only one neighbor can be addressed, two handed if two...").
// Congestion is n per read cell (a whole row/column reads the same bit;
// 2n at the pivot cell (k,k), which serves both roles), and total
// generations are ceil(lg n) * (n + 1): asymptotically
// O(n log n), the classic time for closure on n^2 processors without a
// combining network.
#pragma once

#include <cstdint>
#include <vector>

#include "gca/execution.hpp"
#include "graph/graph.hpp"

namespace gcalib::core {

/// Dense square Boolean matrix; unlike an undirected `graph::Graph` this
/// one is directed (no symmetry requirement) because transitive closure is
/// a directed-graph problem.
class BoolMatrix {
 public:
  BoolMatrix() = default;
  explicit BoolMatrix(std::size_t n) : n_(n), bits_(n * n, 0) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool at(std::size_t i, std::size_t j) const {
    return bits_[i * n_ + j] != 0;
  }
  void set(std::size_t i, std::size_t j, bool value = true) {
    bits_[i * n_ + j] = value ? 1 : 0;
  }

  /// From an undirected graph's adjacency matrix.
  [[nodiscard]] static BoolMatrix from_graph(const graph::Graph& g);

  friend bool operator==(const BoolMatrix&, const BoolMatrix&) = default;

 private:
  std::size_t n_ = 0;
  std::vector<std::uint8_t> bits_;
};

/// Floyd–Warshall style sequential closure (the oracle).
[[nodiscard]] BoolMatrix transitive_closure_warshall(const BoolMatrix& a);

/// Repeated Boolean squaring (the functional reference of the parallel
/// algorithm; same result, different schedule).
[[nodiscard]] BoolMatrix transitive_closure_squaring(const BoolMatrix& a);

/// Result of the GCA run.
struct TcRunResult {
  BoolMatrix closure;
  std::size_t generations = 0;
  std::size_t max_congestion = 0;
};

/// Repeated squaring executed on a two-handed GCA with n^2 cells.
[[nodiscard]] TcRunResult transitive_closure_gca(const BoolMatrix& a,
                                                 bool instrument = true);

/// As above with full execution control; `exec.hands` is overridden to 2
/// (the machine is two-handed by construction).  A width above one shares
/// the process-wide worker set with every other engine of that width.
[[nodiscard]] TcRunResult transitive_closure_gca(const BoolMatrix& a,
                                                 gca::EngineOptions exec);

/// Closed-form generation count of the GCA schedule.
[[nodiscard]] std::size_t tc_total_generations(std::size_t n);

/// Connected components of an undirected graph via closure: label(i) =
/// min{ j : R(i, j) }.  Cross-validation target against union-find.
[[nodiscard]] std::vector<graph::NodeId> components_from_closure(
    const graph::Graph& g);

}  // namespace gcalib::core
