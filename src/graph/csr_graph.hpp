// Immutable CSR (compressed sparse row) adjacency — the sparse substrate.
//
// `Graph` keeps one heap-allocated, growable list per node, which suits
// incremental construction but not bulk sweeps.  `CsrGraph` stores the 2m
// directed arcs in two flat arrays (offsets + neighbour ids), so building
// it and sweeping it are both O(n + m) with no per-node allocation — the
// representation behind the sync hook + pointer-jump reference
// (core/sparse_cc_solver.hpp, DESIGN.md §12).
//
// A graph built by `from_edges` keeps the checked pairs it was given and
// builds offsets and arcs only when an adjacency accessor first asks for
// them: the production link pass labels straight from the pairs
// (`input_pairs`) and never pays for adjacency it does not read.  The
// build runs once, thread-safely, and copies of a graph share it.
//
// The structure is immutable after construction: solvers keep labels
// *next to* it and never mutate the adjacency, which is what makes
// parallel sweeps over it race-free without any per-edge synchronisation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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

  /// Checks and keeps an edge list, for millions of edges: O(m), no
  /// per-node lists and no adjacency until an accessor asks for it.
  /// The adjacency drops self-loops and collapses duplicate edges,
  /// matching `Graph::from_edges` semantics.  Throws ContractViolation on
  /// an endpoint >= n.
  [[nodiscard]] static CsrGraph from_edges(NodeId n,
                                           const std::vector<Edge>& edges);

  [[nodiscard]] NodeId node_count() const { return n_; }
  /// Undirected edge count m (arc count is 2m), after self-loops were
  /// dropped and duplicates collapsed.
  [[nodiscard]] std::size_t edge_count() const {
    return adjacency().arcs.size() / 2;
  }

  [[nodiscard]] NodeId degree(NodeId u) const {
    const Adjacency& adj = adjacency();
    return static_cast<NodeId>(adj.offsets[u + 1] - adj.offsets[u]);
  }

  /// Neighbours of u in ascending order, as a view into the arc array.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    const Adjacency& adj = adjacency();
    return {adj.arcs.data() + adj.offsets[u],
            adj.offsets[u + 1] - adj.offsets[u]};
  }

  /// Offset array (size n + 1) — bulk kernels index the arc array directly.
  [[nodiscard]] const std::vector<std::size_t>& offsets() const {
    return adjacency().offsets;
  }
  /// Arc array (size 2m), ascending within each node's range.
  [[nodiscard]] const std::vector<NodeId>& arcs() const {
    return adjacency().arcs;
  }

  /// The pairs a `from_edges` graph was given, as given (duplicates,
  /// self-loops and either orientation included), read without building
  /// adjacency; null for a graph built any other way.
  [[nodiscard]] const std::vector<Edge>* input_pairs() const {
    return keeps_pairs_ ? &pairs_ : nullptr;
  }

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

  /// Same node count and same adjacency, however each side was built.
  friend bool operator==(const CsrGraph& a, const CsrGraph& b) {
    return a.n_ == b.n_ && a.offsets() == b.offsets() && a.arcs() == b.arcs();
  }

 private:
  /// Offsets and arcs, filled once under `built` — behind a pointer,
  /// because a `std::once_flag` can be neither copied nor moved.  `ready`
  /// lets every access after the build skip the once-call: the sweeps ask
  /// for one row per vertex.
  struct Adjacency {
    std::once_flag built;
    std::atomic<bool> ready{false};
    std::vector<std::size_t> offsets = {0};  ///< size n + 1
    std::vector<NodeId> arcs;                ///< size 2m
  };

  /// The adjacency, built from `pairs_` on first use.
  [[nodiscard]] const Adjacency& adjacency() const {
    if (adjacency_ == nullptr) return empty_adjacency();
    if (!adjacency_->ready.load(std::memory_order_acquire)) build_once();
    return *adjacency_;
  }
  [[nodiscard]] static const Adjacency& empty_adjacency();
  void build_once() const;

  NodeId n_ = 0;
  bool keeps_pairs_ = false;  ///< built by from_edges: `pairs_` is the input
  std::vector<Edge> pairs_;
  std::shared_ptr<Adjacency> adjacency_;  ///< null for a default graph
};

}  // namespace gcalib::graph
