// Undirected graph as sorted adjacency lists.
//
// Memory is O(n + m) for every graph.  The paper's machines store one
// adjacency bit per cell of their n x n square; each builds that field from
// `neighbors()` itself (a zeroed square plus the 2m arcs), so the n^2 cost
// is paid only where the paper's model asks for it.
#pragma once

#include <cstdint>
#include <utility>
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

/// Simple undirected graph without self-loops or parallel edges.
class Graph {
 public:
  Graph() = default;

  /// Creates an edge-less graph over `n` nodes.
  explicit Graph(NodeId n);

  /// Builds a graph from an edge list in one bulk pass (degree count,
  /// append, then sort and dedup each list): duplicates in either
  /// orientation collapse.  A self-loop or an endpoint >= n throws
  /// ContractViolation.
  static Graph from_edges(NodeId n, const std::vector<Edge>& edges);

  [[nodiscard]] NodeId node_count() const { return n_; }
  [[nodiscard]] std::size_t edge_count() const { return edges_; }

  /// Binary search of u's sorted list: O(log deg(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Inserts {u, v}; returns false if it was already present.
  bool add_edge(NodeId u, NodeId v);

  /// Neighbours of `u` in ascending order.
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId u) const {
    GCALIB_EXPECTS(u < n_);
    return adjacency_[u];
  }

  [[nodiscard]] NodeId degree(NodeId u) const {
    GCALIB_EXPECTS(u < n_);
    return static_cast<NodeId>(adjacency_[u].size());
  }

  /// All edges, each once, sorted by (u, v) with u < v.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Edge density m / (n choose 2); 0 for n < 2.
  [[nodiscard]] double density() const;

  /// Same node count and same edge set (the lists are kept sorted, so
  /// insertion order does not matter).
  friend bool operator==(const Graph& a, const Graph& b) {
    return a.n_ == b.n_ && a.adjacency_ == b.adjacency_;
  }

 private:
  NodeId n_ = 0;
  std::size_t edges_ = 0;
  std::vector<std::vector<NodeId>> adjacency_;
};

}  // namespace gcalib::graph
