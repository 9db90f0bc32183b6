#include "graph/generators.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <system_error>
#include <type_traits>
#include <unordered_set>

#include "common/rng.hpp"

namespace gcalib::graph {
namespace {

/// Fisher–Yates shuffle with our deterministic generator.
void shuffle_ids(std::vector<NodeId>& ids, Xoshiro256& rng) {
  for (std::size_t i = ids.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(ids[i - 1], ids[j]);
  }
}

}  // namespace

Graph random_gnp(NodeId n, double p, std::uint64_t seed) {
  GCALIB_EXPECTS(p >= 0.0 && p <= 1.0);
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) edges.push_back({u, v});
    }
  }
  return Graph::from_edges(n, edges);
}

Graph random_gnm(NodeId n, std::size_t m, std::uint64_t seed) {
  const std::size_t possible = n < 2 ? 0 : std::size_t{n} * (n - 1) / 2;
  GCALIB_EXPECTS_MSG(m <= possible, "more edges requested than n choose 2");
  Xoshiro256 rng(seed);
  // A draw that repeats an edge in either orientation is redrawn.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m);
  std::vector<Edge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    const std::uint64_t key =
        std::uint64_t{std::min(u, v)} << 32 | std::max(u, v);
    if (seen.insert(key).second) edges.push_back({u, v});
  }
  return Graph::from_edges(n, edges);
}

Graph path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return Graph::from_edges(n, edges);
}

Graph cycle(NodeId n) {
  GCALIB_EXPECTS(n >= 3);
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n});
  return Graph::from_edges(n, edges);
}

Graph star(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) edges.push_back({0, i});
  return Graph::from_edges(n, edges);
}

Graph complete(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph::from_edges(n, edges);
}

Graph grid(NodeId rows, NodeId cols) {
  std::vector<Edge> edges;
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph random_tree(NodeId n, std::uint64_t seed) {
  if (n <= 1) return Graph(n);
  // Random attachment tree over shuffled labels: node ids[i] attaches to a
  // uniformly chosen earlier node ids[j], j < i.  Always a spanning tree.
  Xoshiro256 rng(seed);
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  shuffle_ids(ids, rng);
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) {
    const NodeId parent = static_cast<NodeId>(rng.below(i));
    edges.push_back({ids[i], ids[parent]});
  }
  return Graph::from_edges(n, edges);
}

Graph disjoint_cliques(const std::vector<NodeId>& sizes) {
  NodeId n = 0;
  for (NodeId s : sizes) {
    GCALIB_EXPECTS(s >= 1);
    n += s;
  }
  std::vector<Edge> edges;
  NodeId base = 0;
  for (NodeId s : sizes) {
    for (NodeId u = 0; u < s; ++u) {
      for (NodeId v = u + 1; v < s; ++v) edges.push_back({base + u, base + v});
    }
    base += s;
  }
  return Graph::from_edges(n, edges);
}

Graph planted_components(NodeId n, NodeId k, double p_in, std::uint64_t seed) {
  GCALIB_EXPECTS(k >= 1 && k <= n);
  Xoshiro256 rng(seed);
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  shuffle_ids(ids, rng);

  std::vector<Edge> edges;
  // Split the shuffled ids into k nearly equal blocks.
  const NodeId base_size = n / k;
  NodeId extra = n % k;
  std::size_t offset = 0;
  for (NodeId c = 0; c < k; ++c) {
    const NodeId size = base_size + (c < extra ? 1 : 0);
    if (size == 0) continue;
    // Random spanning tree over the block guarantees connectivity.
    for (NodeId i = 1; i < size; ++i) {
      const NodeId parent = static_cast<NodeId>(rng.below(i));
      edges.push_back({ids[offset + i], ids[offset + parent]});
    }
    // Extra internal edges with probability p_in (a repeat of a tree edge
    // collapses in the build).
    for (NodeId i = 0; i < size; ++i) {
      for (NodeId j = i + 1; j < size; ++j) {
        if (rng.bernoulli(p_in)) {
          edges.push_back({ids[offset + i], ids[offset + j]});
        }
      }
    }
    offset += size;
  }
  return Graph::from_edges(n, edges);
}

Graph caterpillar(NodeId spine, NodeId legs) {
  GCALIB_EXPECTS(spine >= 1);
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < spine; ++i) edges.push_back({i, i + 1});
  NodeId next = spine;
  for (NodeId i = 0; i < spine; ++i) {
    for (NodeId l = 0; l < legs; ++l) edges.push_back({i, next++});
  }
  return Graph::from_edges(spine + spine * legs, edges);
}

Graph complete_bipartite(NodeId a, NodeId b) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) edges.push_back({u, a + v});
  }
  return Graph::from_edges(a + b, edges);
}

Graph empty_graph(NodeId n) { return Graph(n); }

Graph make_named(const std::string& spec, NodeId n, std::uint64_t seed) {
  const auto reject = [&spec](const std::string& what) {
    throw BadGraphSpec("graph spec '" + spec + "': " + what);
  };
  std::vector<std::string> parts;
  for (std::size_t start = 0;;) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const std::string& kind = parts[0];
  // The family's entry in named_families() ("planted:<k>:<p>") gives the
  // most parameters it takes.
  const std::vector<std::string> families = named_families();
  const auto family = std::find_if(
      families.begin(), families.end(), [&kind](const std::string& entry) {
        return entry.substr(0, entry.find(':')) == kind;
      });
  if (family == families.end()) reject("unknown family '" + kind + "'");
  const auto max_params =
      static_cast<std::size_t>(std::count(family->begin(), family->end(), ':'));
  if (parts.size() > max_params + 1) {
    reject("takes at most " + std::to_string(max_params) + " parameter(s)");
  }
  // Parameter `index` as one whole literal of type T, or `fallback` when
  // the spec stops before it.
  const auto param = [&]<typename T>(std::size_t index, const char* name,
                                     T fallback) {
    if (index >= parts.size()) return fallback;
    const std::string& text = parts[index];
    T value{};
    const char* const end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    const char* problem = nullptr;
    if (ec == std::errc::result_out_of_range) {
      problem = "is out of range";
    } else if (ec != std::errc{} || stop != end) {
      problem = std::is_floating_point_v<T> ? "is not a finite number"
                                            : "is not an integer";
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) problem = "is not a finite number";
    }
    if (problem != nullptr) {
      reject(std::string(name) + " '" + text + "' " + problem);
    }
    return value;
  };
  const auto probability = [&](std::size_t index, double fallback) {
    const double p = param(index, "p", fallback);
    if (p < 0.0 || p > 1.0) reject("p must be in [0, 1]");
    return p;
  };
  const auto part_count = [&](NodeId k) {
    if (k < 1 || k > n) {
      reject("k must be in [1, n = " + std::to_string(n) + "]");
    }
    return k;
  };

  if (kind == "gnp") return random_gnp(n, probability(1, 0.1), seed);
  if (kind == "gnm") {
    const auto m = param(1, "m", std::uint64_t{n} * 2);
    const std::uint64_t possible = n < 2 ? 0 : std::uint64_t{n} * (n - 1) / 2;
    if (m > possible) {
      reject("m must be at most n(n-1)/2 = " + std::to_string(possible));
    }
    return random_gnm(n, static_cast<std::size_t>(m), seed);
  }
  if (kind == "path") return path(n);
  if (kind == "cycle") return cycle(n);
  if (kind == "star") return star(n);
  if (kind == "complete") return complete(n);
  if (kind == "tree") return random_tree(n, seed);
  if (kind == "empty") return empty_graph(n);
  if (kind == "grid") {
    const NodeId rows = param(1, "rows", NodeId{1});
    if (rows < 1 || n % rows != 0) {
      reject("rows must divide n = " + std::to_string(n));
    }
    return grid(rows, n / rows);
  }
  if (kind == "cliques") {
    const NodeId k = part_count(param(1, "k", NodeId{4}));
    std::vector<NodeId> sizes(k, n / k);
    for (NodeId i = 0; i < n % k; ++i) ++sizes[i];
    return disjoint_cliques(sizes);
  }
  if (kind == "planted") {
    const NodeId k = part_count(param(1, "k", NodeId{4}));
    return planted_components(n, k, probability(2, 0.2), seed);
  }
  GCALIB_ASSERT_MSG(kind == "bipartite", "named family without a generator");
  const NodeId a = param(1, "a", n / 2);
  if (a > n) reject("a must be at most n = " + std::to_string(n));
  return complete_bipartite(a, n - a);
}

std::vector<std::string> named_families() {
  return {"gnp:<p>",      "gnm:<m>",  "path",       "cycle",
          "star",         "complete", "tree",       "empty",
          "grid:<rows>",  "cliques:<k>", "planted:<k>:<p>", "bipartite:<a>"};
}

}  // namespace gcalib::graph
