// Deterministic graph generators used as workloads for tests, examples and
// the benchmark sweeps.
//
// The paper targets dense graphs (Hirschberg's algorithm is work-optimal for
// m = Theta(n^2)) but the GCA mapping is correct for any undirected graph,
// so the generator set spans the full density range plus structured families
// with known component structure for oracle-free checks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace gcalib::graph {

/// Erdős–Rényi G(n, p): every possible edge present with probability p.
[[nodiscard]] Graph random_gnp(NodeId n, double p, std::uint64_t seed);

/// Random graph with exactly m distinct edges chosen uniformly.
[[nodiscard]] Graph random_gnm(NodeId n, std::size_t m, std::uint64_t seed);

/// Simple path 0-1-2-...-(n-1); one component, diameter n-1 (stress case for
/// the pointer-jumping step).
[[nodiscard]] Graph path(NodeId n);

/// Cycle over n nodes (requires n >= 3).
[[nodiscard]] Graph cycle(NodeId n);

/// Star with centre 0 and n-1 leaves.
[[nodiscard]] Graph star(NodeId n);

/// Complete graph K_n — the dense regime the algorithm is optimal for.
[[nodiscard]] Graph complete(NodeId n);

/// rows x cols grid graph (4-neighbourhood).
[[nodiscard]] Graph grid(NodeId rows, NodeId cols);

/// Uniformly random spanning tree over n nodes (random Prüfer sequence).
[[nodiscard]] Graph random_tree(NodeId n, std::uint64_t seed);

/// Union of `k` cliques with the given sizes; node ids are assigned in
/// blocks, so component c spans a contiguous id range.  Known answer:
/// exactly `sizes.size()` components.
[[nodiscard]] Graph disjoint_cliques(const std::vector<NodeId>& sizes);

/// `k` planted components, each an independent G(size, p_in) that is then
/// connected (a random spanning tree is added so every planted part really
/// is one component).  Node ids are shuffled so components are interleaved.
/// Known answer: exactly `k` components (plus any isolated remainder nodes).
[[nodiscard]] Graph planted_components(NodeId n, NodeId k, double p_in,
                                       std::uint64_t seed);

/// Caterpillar: a path spine of `spine` nodes, each with `legs` leaves.
[[nodiscard]] Graph caterpillar(NodeId spine, NodeId legs);

/// Complete bipartite graph K_{a,b}.
[[nodiscard]] Graph complete_bipartite(NodeId a, NodeId b);

/// n isolated nodes (no edges): n components.
[[nodiscard]] Graph empty_graph(NodeId n);

/// A `make_named` spec that names no family, carries a parameter that is
/// not one whole, finite, in-range literal, or does not fit n.  The
/// message names the spec.
class BadGraphSpec : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Named generator dispatch used by CLI tools:
/// "gnp:<p>", "gnm:<m>", "path", "cycle", "star", "complete", "tree",
/// "cliques:<k>", "planted:<k>:<p>", "grid:<rows>", "bipartite:<a>", "empty".
/// Parameters are optional; a bad spec throws BadGraphSpec.
[[nodiscard]] Graph make_named(const std::string& spec, NodeId n,
                               std::uint64_t seed);

/// The list of specs accepted by `make_named` (for --help output / sweeps).
[[nodiscard]] std::vector<std::string> named_families();

}  // namespace gcalib::graph
