#include "pram/shiloach_vishkin.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace gcalib::pram {

using graph::Graph;
using graph::NodeId;

namespace {

/// Standard SV star detection over a parent forest:
/// a node is in a star iff its tree has depth <= 1.
std::vector<std::uint8_t> compute_stars(const std::vector<NodeId>& parent) {
  const std::size_t n = parent.size();
  std::vector<std::uint8_t> star(n, 1);
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId gp = parent[parent[v]];
    if (parent[v] != gp) {
      star[v] = 0;
      star[parent[v]] = 0;
      star[gp] = 0;
    }
  }
  for (std::size_t v = 0; v < n; ++v) star[v] = star[parent[v]];
  return star;
}

}  // namespace

std::vector<NodeId> shiloach_vishkin_reference(const Graph& g) {
  const NodeId n = g.node_count();
  std::vector<NodeId> parent(n);
  for (NodeId v = 0; v < n; ++v) parent[v] = v;
  if (n == 0) return parent;

  // Invariant: parent[v] <= v is preserved by min-hooking and shortcutting,
  // so converged roots are minimum ids (no canonicalisation needed).
  while (true) {
    const std::vector<std::uint8_t> star = compute_stars(parent);

    // Star hooking with min-combining of concurrent proposals (deterministic
    // stand-in for the CRCW-arbitrary write of the original algorithm).
    std::vector<NodeId> proposal(n, n);  // n = "none"
    bool hooked = false;
    for (const graph::Edge& e : g.edges()) {
      const auto consider = [&](NodeId u, NodeId v) {
        if (star[u] && parent[v] < parent[u]) {
          proposal[parent[u]] = std::min(proposal[parent[u]], parent[v]);
          hooked = true;
        }
      };
      consider(e.u, e.v);
      consider(e.v, e.u);
    }

    bool all_stars = true;
    for (NodeId v = 0; v < n; ++v) all_stars = all_stars && star[v] != 0;
    if (!hooked && all_stars) break;

    for (NodeId v = 0; v < n; ++v) {
      if (proposal[v] != n) parent[v] = proposal[v];
    }
    // Shortcut (synchronous: reads pre-update parents).
    std::vector<NodeId> next(n);
    for (NodeId v = 0; v < n; ++v) next[v] = parent[parent[v]];
    parent.swap(next);
  }
  return parent;
}

ShiloachVishkinPramResult run_shiloach_vishkin_pram(const Graph& g,
                                                    AccessMode mode) {
  const NodeId n = g.node_count();
  ShiloachVishkinPramResult result;
  if (n == 0) return result;

  const std::size_t nn = std::size_t{n} * n;
  // Layout: A | parent | star | scratch (grandparent snapshot).
  Machine machine(nn + 3 * n, mode);
  const ArrayRef a = machine.alloc("A", nn);
  const ArrayRef parent = machine.alloc("parent", n);
  const ArrayRef star = machine.alloc("star", n);
  const ArrayRef scratch = machine.alloc("scratch", n);

  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId j : g.neighbors(i)) {
      machine.store(a.at(std::size_t{i} * n + j), 1);
    }
  }

  machine.step(
      n, [&](Processor& p) { p.write(parent.at(p.id()), static_cast<Word>(p.id())); },
      "sv:init");

  std::vector<Word> before(n), after(n);
  std::size_t iterations = 0;
  // Convergence: an iteration that leaves the forest unchanged can never be
  // followed by progress, so the host loop stops there.  The cap is a
  // safety net against implementation bugs only.
  const std::size_t cap = 4 * (n > 1 ? log2_ceil(n) : 1) + 8 + n;
  while (true) {
    GCALIB_ASSERT_MSG(iterations < cap, "Shiloach-Vishkin failed to converge");
    for (NodeId i = 0; i < n; ++i) before[i] = machine.load(parent.at(i));

    // Star detection, phase 1: assume star.
    machine.step(
        n, [&](Processor& p) { p.write(star.at(p.id()), 1); }, "sv:star-seed");
    // Phase 2: any depth-2 node clears itself, its parent and grandparent.
    // The three concurrent 0-writes need a CRCW mode.
    machine.step(
        n,
        [&](Processor& p) {
          const Word pv = p.read(parent.at(p.id()));
          const Word gp = p.read(parent.at(static_cast<std::size_t>(pv)));
          if (pv != gp) {
            p.write(star.at(p.id()), 0);
            p.write(star.at(static_cast<std::size_t>(pv)), 0);
            p.write(star.at(static_cast<std::size_t>(gp)), 0);
          }
        },
        "sv:star-mark");
    // Phase 3: inherit the root's verdict.
    machine.step(
        n,
        [&](Processor& p) {
          const Word pv = p.read(parent.at(p.id()));
          p.write(star.at(p.id()),
                  p.read(star.at(static_cast<std::size_t>(pv))));
        },
        "sv:star-propagate");

    // Hooking: processor (u,v) proposes parent[parent[u]] <- parent[v] when
    // u is in a star and the neighbour's parent is smaller.  Concurrent
    // proposals to the same root are combined by the machine (CRCW).
    machine.step(
        nn,
        [&](Processor& p) {
          const std::size_t u = p.id() / n;
          const std::size_t v = p.id() % n;
          if (p.read(a.at(u * n + v)) != 1) return;
          if (p.read(star.at(u)) != 1) return;
          const Word pu = p.read(parent.at(u));
          const Word pv = p.read(parent.at(v));
          if (pv < pu) p.write(parent.at(static_cast<std::size_t>(pu)), pv);
        },
        "sv:hook");

    // Shortcut: parent[v] <- parent[parent[v]] (synchronous via snapshot).
    machine.step(
        n,
        [&](Processor& p) {
          const Word pv = p.read(parent.at(p.id()));
          p.write(scratch.at(p.id()),
                  p.read(parent.at(static_cast<std::size_t>(pv))));
        },
        "sv:shortcut-read");
    machine.step(
        n,
        [&](Processor& p) {
          p.write(parent.at(p.id()), p.read(scratch.at(p.id())));
        },
        "sv:shortcut-write");

    ++iterations;
    bool changed = false;
    for (NodeId i = 0; i < n; ++i) {
      after[i] = machine.load(parent.at(i));
      changed = changed || after[i] != before[i];
    }
    if (!changed) break;
  }

  result.labels.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    result.labels[i] = static_cast<NodeId>(machine.load(parent.at(i)));
  }
  result.iterations = iterations;
  result.stats = machine.stats();
  return result;
}

}  // namespace gcalib::pram
