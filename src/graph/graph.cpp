#include "graph/graph.hpp"

#include <algorithm>

namespace gcalib::graph {

void build_adjacency(NodeId n, std::span<const Edge> edges,
                     std::vector<std::size_t>& offsets,
                     std::vector<NodeId>& arcs) {
  // Counting sort of the arcs by source: degrees (offsets[u + 1] counts
  // the arcs of u), an exclusive scan, then placement in input order.
  offsets.assign(std::size_t{n} + 1, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;  // self-loops never label anything
    ++offsets[std::size_t{e.u} + 1];
    ++offsets[std::size_t{e.v} + 1];
  }
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<NodeId> unsorted(offsets[n]);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    unsorted[cursor[e.u]++] = e.v;
    unsorted[cursor[e.v]++] = e.u;
  }
  // Transpose: walking the rows in ascending u and appending u to the row
  // of each of its neighbours v fills every row in ascending order, and
  // by symmetry row v receives exactly v's neighbours.  A duplicate lands
  // right after its twin, so it is skipped as it arrives.
  std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
  arcs.resize(offsets[n]);
  bool duplicates = false;
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      std::size_t& at = cursor[unsorted[k]];
      if (at != offsets[unsorted[k]] && arcs[at - 1] == u) {
        duplicates = true;
        continue;
      }
      arcs[at++] = u;
    }
  }
  if (!duplicates) return;
  // Close the gaps the skipped duplicates left at the ends of rows.
  std::size_t write = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t begin = offsets[u];
    offsets[u] = write;
    for (std::size_t k = begin; k < cursor[u]; ++k) arcs[write++] = arcs[k];
  }
  offsets[n] = write;
  arcs.resize(write);
}

Graph Graph::from_edges(NodeId n, const std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    GCALIB_EXPECTS(e.u < n && e.v < n);
    GCALIB_EXPECTS_MSG(e.u != e.v, "self-loops are not representable");
  }
  Graph g;
  g.n_ = n;
  build_adjacency(n, edges, g.offsets_, g.arcs_);
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  GCALIB_EXPECTS(u < n_ && v < n_);
  const std::span<const NodeId> row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) out.push_back(Edge{u, v});
    }
  }
  return out;
}

double Graph::density() const {
  if (n_ < 2) return 0.0;
  const double possible = 0.5 * static_cast<double>(n_) * (n_ - 1.0);
  return static_cast<double>(edge_count()) / possible;
}

}  // namespace gcalib::graph
