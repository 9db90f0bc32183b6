#include "pram/hirschberg.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace gcalib::pram {

using graph::Graph;
using graph::NodeId;

HirschbergReferenceResult hirschberg_reference_full(const Graph& g,
                                                    bool with_trace) {
  const NodeId n = g.node_count();
  HirschbergReferenceResult result;
  result.labels.resize(n);
  if (n == 0) return result;

  // Step 1: every node is its own component.
  std::vector<NodeId> c(n);
  for (NodeId i = 0; i < n; ++i) c[i] = i;

  const NodeId none = n;  // "infinity" sentinel: no candidate found
  const unsigned iterations = n > 1 ? log2_ceil(n) : 0;
  std::vector<NodeId> t(n), t2(n), next(n);

  for (unsigned iter = 0; iter < iterations; ++iter) {
    HirschbergIterationTrace trace_entry;

    // Step 2: each node finds the smallest neighbouring component.
    for (NodeId i = 0; i < n; ++i) {
      NodeId best = none;
      for (NodeId j : g.neighbors(i)) {
        if (c[j] != c[i]) best = std::min(best, c[j]);
      }
      t[i] = best == none ? c[i] : best;
    }
    if (with_trace) trace_entry.t_after_step2 = t;

    // Step 3: each component index i gathers the smallest candidate found by
    // its members ({j : C(j) = i}), ignoring candidates equal to i itself.
    for (NodeId i = 0; i < n; ++i) {
      NodeId best = none;
      for (NodeId j = 0; j < n; ++j) {
        if (c[j] == i && t[j] != i) best = std::min(best, t[j]);
      }
      t2[i] = best == none ? c[i] : best;
    }
    t = t2;
    if (with_trace) trace_entry.t_after_step3 = t;

    // Step 4: adopt the links.
    c = t;

    // Step 5: pointer jumping, ceil(lg n) rounds, all synchronous.
    for (unsigned r = 0; r < iterations; ++r) {
      for (NodeId i = 0; i < n; ++i) next[i] = c[c[i]];
      c.swap(next);
    }
    if (with_trace) trace_entry.c_after_step5 = c;

    // Step 6 (HCS-1979 form): resolve the 2-cycles left by min-hooking.
    for (NodeId i = 0; i < n; ++i) next[i] = std::min(c[i], c[t[i]]);
    c.swap(next);
    if (with_trace) {
      trace_entry.c_after_step6 = c;
      result.trace.push_back(std::move(trace_entry));
    }
  }

  result.labels = std::move(c);
  result.iterations = iterations;
  return result;
}

std::vector<NodeId> hirschberg_reference(const Graph& g) {
  return hirschberg_reference_full(g).labels;
}

std::size_t hirschberg_pram_step_count(NodeId n) {
  if (n <= 1) return 1;  // just the init step
  const std::size_t lg = log2_ceil(n);
  // init + per iteration: step2 (1 + lg + 1), step3 (1 + lg + 1),
  // step4 (1), step5 (lg), step6 (1) = 3*lg + 6 steps per iteration.
  return 1 + lg * (3 * lg + 6);
}

namespace {

/// Shared implementation of the fully parallel and Brent-virtualised runs;
/// `physical` == 0 means one physical machine per virtual processor.
HirschbergPramResult run_hirschberg_impl(const Graph& g, AccessMode mode,
                                         std::size_t physical) {
  const NodeId n = g.node_count();
  HirschbergPramResult result;
  if (n == 0) return result;

  const std::size_t nn = std::size_t{n} * n;
  Machine machine(nn /*A*/ + nn /*M scratch*/ + 2 * n /*C, T*/, mode);
  // Dispatch through Brent virtualisation when a physical machine count is
  // given (0 = fully parallel).
  const auto do_step = [&machine, physical](
                           std::size_t processors,
                           const std::function<void(Processor&)>& body,
                           std::string label) {
    if (physical == 0) {
      machine.step(processors, body, std::move(label));
    } else {
      machine.step_virtual(processors, physical, body, std::move(label));
    }
  };
  const ArrayRef a = machine.alloc("A", nn);
  const ArrayRef m = machine.alloc("M", nn);
  const ArrayRef c = machine.alloc("C", n);
  const ArrayRef t = machine.alloc("T", n);

  // Load the adjacency matrix as host data: memory starts zeroed, so only
  // the 2m arcs are stored.
  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId j : g.neighbors(i)) {
      machine.store(a.at(std::size_t{i} * n + j), 1);
    }
  }
  // Ownership: processor (i,j) = i*n + j owns M(i,j); processor i owns C(i)
  // and T(i).  This is the owner-write discipline the paper points out the
  // algorithm needs (CROW, not full CREW).
  for (std::size_t k = 0; k < nn; ++k) machine.set_owner(m.at(k), k);
  for (NodeId i = 0; i < n; ++i) {
    machine.set_owner(c.at(i), i);
    machine.set_owner(t.at(i), i);
  }

  // Step 1: C(i) <- i.
  do_step(
      n, [&](Processor& p) { p.write(c.at(p.id()), static_cast<Word>(p.id())); },
      "step1:init");

  const unsigned iterations = n > 1 ? log2_ceil(n) : 0;
  const unsigned lg = iterations;

  // Tree-minimum over each row of M in ceil(lg n) synchronous halvings;
  // processor (i, k) combines M(i, k) and M(i, k + 2^s).
  const auto reduce_rows = [&](const std::string& label) {
    for (unsigned s = 0; s < lg; ++s) {
      const std::size_t offset = std::size_t{1} << s;
      do_step(
          nn,
          [&](Processor& p) {
            const std::size_t i = p.id() / n;
            const std::size_t k = p.id() % n;
            if (k % (offset * 2) != 0 || k + offset >= n) return;
            const Word lhs = p.read(m.at(i * n + k));
            const Word rhs = p.read(m.at(i * n + k + offset));
            if (rhs < lhs) p.write(m.at(i * n + k), rhs);
          },
          label + ":reduce" + std::to_string(s));
    }
  };

  for (unsigned iter = 0; iter < iterations; ++iter) {
    // Step 2: M(i,j) = C(j) if A(i,j)=1 and C(j) != C(i), else +inf.
    do_step(
        nn,
        [&](Processor& p) {
          const std::size_t i = p.id() / n;
          const std::size_t j = p.id() % n;
          const Word adj = p.read(a.at(i * n + j));
          const Word cj = p.read(c.at(j));
          const Word ci = p.read(c.at(i));
          p.write(m.at(i * n + j), (adj == 1 && cj != ci) ? cj : kInf);
        },
        "step2:candidates");
    reduce_rows("step2");
    do_step(
        n,
        [&](Processor& p) {
          const std::size_t i = p.id();
          const Word best = p.read(m.at(i * n));
          const Word fallback = p.read(c.at(i));
          p.write(t.at(i), best == kInf ? fallback : best);
        },
        "step2:collect");

    // Step 3: M(i,j) = T(j) if C(j)=i and T(j) != i, else +inf.
    do_step(
        nn,
        [&](Processor& p) {
          const std::size_t i = p.id() / n;
          const std::size_t j = p.id() % n;
          const Word cj = p.read(c.at(j));
          const Word tj = p.read(t.at(j));
          p.write(m.at(i * n + j),
                  (cj == static_cast<Word>(i) && tj != static_cast<Word>(i))
                      ? tj
                      : kInf);
        },
        "step3:candidates");
    reduce_rows("step3");
    do_step(
        n,
        [&](Processor& p) {
          const std::size_t i = p.id();
          const Word best = p.read(m.at(i * n));
          const Word fallback = p.read(c.at(i));
          p.write(t.at(i), best == kInf ? fallback : best);
        },
        "step3:collect");

    // Step 4: C <- T.
    do_step(
        n,
        [&](Processor& p) {
          p.write(c.at(p.id()), p.read(t.at(p.id())));
        },
        "step4:adopt");

    // Step 5: pointer jumping.
    for (unsigned r = 0; r < lg; ++r) {
      do_step(
          n,
          [&](Processor& p) {
            const Word ci = p.read(c.at(p.id()));
            const Word cci = p.read(c.at(static_cast<std::size_t>(ci)));
            p.write(c.at(p.id()), cci);
          },
          "step5:jump" + std::to_string(r));
    }

    // Step 6 (HCS-1979 form): C(i) <- min(C(i), C(T(i))).
    do_step(
        n,
        [&](Processor& p) {
          const Word ci = p.read(c.at(p.id()));
          const Word ti = p.read(t.at(p.id()));
          const Word cti = p.read(c.at(static_cast<std::size_t>(ti)));
          p.write(c.at(p.id()), std::min(ci, cti));
        },
        "step6:correct");
  }

  result.labels.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    result.labels[i] = static_cast<NodeId>(machine.load(c.at(i)));
  }
  result.iterations = iterations;
  result.stats = machine.stats();
  result.step_history = machine.history();
  return result;
}

}  // namespace

HirschbergPramResult run_hirschberg_pram(const Graph& g, AccessMode mode) {
  return run_hirschberg_impl(g, mode, /*physical=*/0);
}

HirschbergPramResult run_hirschberg_pram_brent(const Graph& g,
                                               std::size_t physical_processors,
                                               AccessMode mode) {
  GCALIB_EXPECTS(physical_processors >= 1);
  return run_hirschberg_impl(g, mode, physical_processors);
}

}  // namespace gcalib::pram
