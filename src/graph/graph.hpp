// Undirected graph as one immutable flat CSR.
//
// Two arrays hold the whole adjacency: an offset array (n + 1 entries) and
// an arc array (2m entries, ascending within each node's row), as the
// paper's machine keeps its adjacency in one field that every cell reads in
// place.  A graph is two heap blocks however many nodes it has.
// `Graph::from_edges` builds both in one counting sort (`build_adjacency`),
// the same one `CsrGraph` uses, so `CsrGraph::from_graph` is a copy.
// The paper's machines store one adjacency bit per cell of their n x n
// square; each builds that field from `neighbors()` itself (a zeroed square
// plus the 2m arcs), so the n^2 cost is paid only where the paper's model
// asks for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace gcalib::graph {

/// Node index type.  The paper's cell registers hold node numbers of
/// O(log n) bits; 32 bits comfortably covers every simulatable size.
using NodeId = std::uint32_t;

/// An undirected edge as an (ordered) node pair with u < v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Fills `offsets` (n + 1 entries) and `arcs` (2m entries) with the CSR
/// adjacency of `edges`: each edge {u, v} becomes the arcs u->v and v->u,
/// every row ascending, self-loops dropped and duplicates in either
/// orientation collapsed.  O(n + m) with no comparison sort.  Every
/// endpoint must be < n; callers check that first.
void build_adjacency(NodeId n, std::span<const Edge> edges,
                     std::vector<std::size_t>& offsets,
                     std::vector<NodeId>& arcs);

/// Simple undirected graph without self-loops or parallel edges.
/// Immutable: code that makes a graph collects its pairs and calls
/// `from_edges` once.
class Graph {
 public:
  Graph() = default;

  /// Creates an edge-less graph over `n` nodes.
  explicit Graph(NodeId n) : n_(n), offsets_(std::size_t{n} + 1, 0) {}

  /// Builds a graph from an edge list in one counting sort: duplicates in
  /// either orientation collapse.  A self-loop or an endpoint >= n throws
  /// ContractViolation.
  static Graph from_edges(NodeId n, const std::vector<Edge>& edges);

  [[nodiscard]] NodeId node_count() const { return n_; }
  [[nodiscard]] std::size_t edge_count() const { return arcs_.size() / 2; }

  /// Binary search of u's row: O(log deg(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Neighbours of `u` in ascending order, as a view into the arc array.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    GCALIB_EXPECTS(u < n_);
    return {arcs_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  [[nodiscard]] NodeId degree(NodeId u) const {
    GCALIB_EXPECTS(u < n_);
    return static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
  }

  /// Offset array (size n + 1): row u is the arcs from offsets()[u] up to
  /// offsets()[u + 1].
  [[nodiscard]] const std::vector<std::size_t>& offsets() const {
    return offsets_;
  }
  /// Arc array (size 2m), ascending within each row.
  [[nodiscard]] const std::vector<NodeId>& arcs() const { return arcs_; }

  /// All edges, each once, sorted by (u, v) with u < v.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Edge density m / (n choose 2); 0 for n < 2.
  [[nodiscard]] double density() const;

  /// Same node count and same edge set, in whatever order it was given.
  friend bool operator==(const Graph& a, const Graph& b) {
    return a.n_ == b.n_ && a.offsets_ == b.offsets_ && a.arcs_ == b.arcs_;
  }

 private:
  NodeId n_ = 0;
  std::vector<std::size_t> offsets_ = {0};  ///< size n + 1
  std::vector<NodeId> arcs_;                ///< size 2m
};

}  // namespace gcalib::graph
