#include "graph/graph.hpp"

#include <algorithm>

namespace gcalib::graph {

Graph::Graph(NodeId n) : n_(n), adjacency_(n) {}

Graph Graph::from_edges(NodeId n, const std::vector<Edge>& edges) {
  Graph g(n);
  std::vector<NodeId> degree(n, 0);
  for (const Edge& e : edges) {
    GCALIB_EXPECTS(e.u < n && e.v < n);
    GCALIB_EXPECTS_MSG(e.u != e.v, "self-loops are not representable");
    ++degree[e.u];
    ++degree[e.v];
  }
  for (NodeId u = 0; u < n; ++u) g.adjacency_[u].reserve(degree[u]);
  for (const Edge& e : edges) {
    g.adjacency_[e.u].push_back(e.v);
    g.adjacency_[e.v].push_back(e.u);
  }
  for (std::vector<NodeId>& list : g.adjacency_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    g.edges_ += list.size();
  }
  g.edges_ /= 2;
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  GCALIB_EXPECTS(u < n_ && v < n_);
  return std::binary_search(adjacency_[u].begin(), adjacency_[u].end(), v);
}

bool Graph::add_edge(NodeId u, NodeId v) {
  GCALIB_EXPECTS(u < n_ && v < n_);
  GCALIB_EXPECTS_MSG(u != v, "self-loops are not representable");
  // Lists stay sorted for deterministic iteration; the insertion point of
  // v in u's list doubles as the duplicate check.
  std::vector<NodeId>& from_u = adjacency_[u];
  const auto at = std::lower_bound(from_u.begin(), from_u.end(), v);
  if (at != from_u.end() && *at == v) return false;
  from_u.insert(at, v);
  std::vector<NodeId>& from_v = adjacency_[v];
  from_v.insert(std::lower_bound(from_v.begin(), from_v.end(), u), u);
  ++edges_;
  return true;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edges_);
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v : adjacency_[u]) {
      if (u < v) out.push_back(Edge{u, v});
    }
  }
  return out;
}

double Graph::density() const {
  if (n_ < 2) return 0.0;
  const double possible = 0.5 * static_cast<double>(n_) * (n_ - 1.0);
  return static_cast<double>(edges_) / possible;
}

}  // namespace gcalib::graph
