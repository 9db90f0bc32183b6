// Immutable CSR (compressed sparse row) adjacency — the sparse substrate.
//
// `Graph` keeps one heap-allocated, growable list per node, which suits
// incremental construction but not bulk sweeps.  `CsrGraph` stores the 2m
// directed arcs in two flat arrays (offsets + neighbour ids), so building
// it and sweeping it are both O(n + m) with no per-node allocation — the
// representation behind the O(m)-work label propagation solver
// (core/sparse_cc_solver.hpp, DESIGN.md §12).
//
// The structure is immutable after construction: solvers double-buffer
// labels *next to* it and never mutate the adjacency, which is what makes
// parallel sweeps over it race-free without any per-edge synchronisation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace gcalib::graph {

/// Undirected graph in CSR form: for each node u the neighbours are
/// `neighbors(u)` (ascending, no self-loops, no duplicates); every edge
/// {u, v} appears as the two arcs u->v and v->u.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds the CSR view of an existing `Graph` (O(n + m)).
  [[nodiscard]] static CsrGraph from_graph(const Graph& g);

  /// Builds directly from an edge list without per-node lists — the
  /// constructor for millions of edges.
  /// Self-loops are dropped and duplicate edges collapsed, matching
  /// `Graph::from_edges` semantics.  Throws ContractViolation on an
  /// endpoint >= n.
  [[nodiscard]] static CsrGraph from_edges(NodeId n,
                                           const std::vector<Edge>& edges);

  [[nodiscard]] NodeId node_count() const { return n_; }
  /// Undirected edge count m (arc count is 2m).
  [[nodiscard]] std::size_t edge_count() const { return neighbors_.size() / 2; }

  [[nodiscard]] NodeId degree(NodeId u) const {
    return static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
  }

  /// Neighbours of u in ascending order, as a view into the arc array.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return {neighbors_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// Offset array (size n + 1) — bulk kernels index the arc array directly.
  [[nodiscard]] const std::vector<std::size_t>& offsets() const {
    return offsets_;
  }
  /// Arc array (size 2m), ascending within each node's range.
  [[nodiscard]] const std::vector<NodeId>& arcs() const { return neighbors_; }

  /// Edge density m / (n choose 2); 0 for n < 2.
  [[nodiscard]] double density() const;

  /// Vertices per label-array cache line (64 bytes / 4-byte NodeId): the
  /// alignment grain of `edge_balanced_boundaries`, so two sweep lanes
  /// never write labels into the same cache line.
  static constexpr NodeId kLineVertices = 16;

  /// Degree-prefix partition for parallel sweeps: `parts + 1` ascending
  /// vertex boundaries `b[0] = 0 <= b[1] <= ... <= b[parts] = n` such that
  /// every range [b[k], b[k+1]) covers roughly `2m / parts` arcs (the
  /// offsets array *is* the degree prefix sum, so each boundary is one
  /// binary search).  Interior boundaries are rounded down to a
  /// `kLineVertices` multiple, so per-lane label writes stay cache-line
  /// disjoint.  Count-equal vertex partitions starve all but one lane on
  /// skewed degree distributions (a star graph puts every arc in the hub's
  /// range); arc-balanced boundaries keep the lanes loaded.
  [[nodiscard]] std::vector<NodeId> edge_balanced_boundaries(
      unsigned parts) const;

  /// Materialises the adjacency-list `Graph` (O(n + m); round-trip helper
  /// for tests and the paper machines' inputs).
  [[nodiscard]] Graph to_graph() const;

  /// Order-sensitive 64-bit digest of the adjacency structure (FNV-1a over
  /// n, the offset array and the arc array) — the binding a durable sparse
  /// checkpoint (core/checkpoint.hpp, GSKP) carries so a label plane can
  /// never be resumed against a different graph.  Deterministic across
  /// platforms: it hashes the integer values, not their byte layout.
  [[nodiscard]] std::uint64_t content_hash() const;

  friend bool operator==(const CsrGraph&, const CsrGraph&) = default;

 private:
  NodeId n_ = 0;
  std::vector<std::size_t> offsets_ = {0};  ///< size n + 1
  std::vector<NodeId> neighbors_;           ///< size 2m
};

}  // namespace gcalib::graph
