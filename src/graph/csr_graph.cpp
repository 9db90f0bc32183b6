#include "graph/csr_graph.hpp"

#include <algorithm>
#include <mutex>

#include "common/assert.hpp"

namespace gcalib::graph {

CsrGraph CsrGraph::from_graph(const Graph& g) {
  CsrGraph out;
  out.n_ = g.node_count();
  out.adjacency_ = std::make_shared<Adjacency>();
  Adjacency& adj = *out.adjacency_;
  adj.offsets.assign(std::size_t{out.n_} + 1, 0);
  adj.arcs.reserve(2 * g.edge_count());
  for (NodeId u = 0; u < out.n_; ++u) {
    const std::vector<NodeId>& row = g.neighbors(u);
    adj.arcs.insert(adj.arcs.end(), row.begin(), row.end());
    adj.offsets[u + 1] = adj.arcs.size();
  }
  adj.ready.store(true, std::memory_order_release);
  return out;
}

CsrGraph CsrGraph::from_edges(NodeId n, const std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    GCALIB_EXPECTS_MSG(e.u < n && e.v < n,
                       "csr: edge endpoint out of range");
  }
  CsrGraph out;
  out.n_ = n;
  out.keeps_pairs_ = true;
  out.pairs_ = edges;
  out.adjacency_ = std::make_shared<Adjacency>();
  return out;
}

const CsrGraph::Adjacency& CsrGraph::empty_adjacency() {
  static const Adjacency empty;  // offsets {0}, no arcs
  return empty;
}

void CsrGraph::build_once() const {
  Adjacency& adj = *adjacency_;
  std::call_once(adj.built, [&] {
    std::vector<std::size_t>& offsets = adj.offsets;
    std::vector<NodeId>& arcs = adj.arcs;
    offsets.assign(std::size_t{n_} + 1, 0);
    // Two-pass counting sort over the arcs: O(n + m) time, no comparison
    // sort over the full arc array.  Degrees first (offsets[u + 1] counts
    // arcs of u), then an exclusive scan, then placement.
    for (const Edge& e : pairs_) {
      if (e.u == e.v) continue;  // self-loops never label anything
      ++offsets[std::size_t{e.u} + 1];
      ++offsets[std::size_t{e.v} + 1];
    }
    for (std::size_t u = 0; u < n_; ++u) offsets[u + 1] += offsets[u];
    arcs.resize(offsets[n_]);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : pairs_) {
      if (e.u == e.v) continue;
      arcs[cursor[e.u]++] = e.v;
      arcs[cursor[e.v]++] = e.u;
    }
    // Per-node sort + dedup keeps `neighbors(u)` ascending and collapses
    // parallel edges; compaction rewrites offsets in place.
    std::size_t write = 0;
    std::size_t row_begin = 0;
    for (NodeId u = 0; u < n_; ++u) {
      const std::size_t row_end = offsets[u + 1];
      std::sort(arcs.begin() + static_cast<std::ptrdiff_t>(row_begin),
                arcs.begin() + static_cast<std::ptrdiff_t>(row_end));
      NodeId last = n_;  // impossible neighbour value
      for (std::size_t k = row_begin; k < row_end; ++k) {
        if (arcs[k] == last) continue;
        last = arcs[k];
        arcs[write++] = last;
      }
      row_begin = row_end;
      offsets[u + 1] = write;
    }
    arcs.resize(write);
    adj.ready.store(true, std::memory_order_release);
  });
}

std::vector<NodeId> CsrGraph::edge_balanced_boundaries(unsigned parts) const {
  GCALIB_EXPECTS_MSG(parts >= 1, "csr: partition needs at least one part");
  const std::vector<std::size_t>& prefix = offsets();
  std::vector<NodeId> bounds(std::size_t{parts} + 1, n_);
  bounds[0] = 0;
  const std::size_t total_arcs = prefix[n_];
  for (unsigned k = 1; k < parts; ++k) {
    // prefix is the (non-decreasing) degree prefix sum, so the first
    // vertex whose prefix exceeds the target arc count is one upper_bound.
    const std::size_t target = total_arcs * k / parts;
    const auto it =
        std::upper_bound(prefix.begin(), prefix.end(), target);
    NodeId b = static_cast<NodeId>(it - prefix.begin());
    if (b > 0) --b;  // prefix[b] <= target < prefix[b + 1]
    b -= b % kLineVertices;
    // Keep the sequence monotone; empty ranges are fine (a lane with no
    // vertices just returns immediately).
    bounds[k] = std::max(bounds[k - 1], std::min(b, n_));
  }
  return bounds;
}

double CsrGraph::density() const {
  if (n_ < 2) return 0.0;
  const double pairs =
      static_cast<double>(n_) * static_cast<double>(n_ - 1) / 2.0;
  return static_cast<double>(edge_count()) / pairs;
}

std::uint64_t CsrGraph::content_hash() const {
  // FNV-1a over the structural integers.  Hashing values (not bytes) keeps
  // the digest identical across endianness and std::size_t widths.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xFFu;
      hash *= 0x100000001b3ull;
    }
  };
  mix(n_);
  for (const std::size_t offset : offsets()) mix(offset);
  for (const NodeId arc : arcs()) mix(arc);
  return hash;
}

Graph CsrGraph::to_graph() const {
  Graph g(n_);
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) g.add_edge(u, v);
    }
  }
  return g;
}

}  // namespace gcalib::graph
