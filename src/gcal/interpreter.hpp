// gcal — a rule-description language for Global Cellular Automata.
//
// The paper presents its algorithm as a state graph (Figure 2): per
// generation, a pointer operation and a data operation over position
// variables.  gcal is exactly that, as text.  The interpreter executes a
// gcal program on the generic GCA engine over the paper's (n+1) x n
// Hirschberg field layout, which makes machine descriptions testable
// against the hand-written C++ rules (the test suite runs the embedded
// Hirschberg program and compares the D field with core::HirschbergGca
// after every generation).
//
// Language reference
// ------------------
//   program NAME
//   generation NAME [repeat [rows]]: # prologue: runs once, in order
//     active EXPR                    # which cells participate (0 = idle)
//     p = EXPR                       # optional: global read target
//     d = EXPR                       # new d value (optional if e = given)
//     e = EXPR                       # new e value (second register)
//   loop:                            # body repeats ceil(lg n) times
//     generation ... (as above)
//
// `repeat` generations run ceil(lg n) sub-generations with `sub` = 0,1,...;
// `repeat rows` runs ceil(lg (n+1)) of them (rings over all n+1 rows).
// When both `d =` and `e =` are present they evaluate against the old
// state and commit together (synchronous semantics within the cell).
//
// Expression variables (all evaluate per cell):
//   n, nn (= n*n), rows (= n+1), index, row, col, sub,
//   d, e, a, p (own state), dstar, estar, astar (global cell, needs `p =`),
//   inf (the infinity code), square (1 iff row < n), bottom (1 iff
//   row == n), all (1).
// Operators: ?: || && == != < > <= >= << >> + - * / % unary - !
// Functions: min(x, y), max(x, y).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gca/execution.hpp"
#include "gcal/ast.hpp"
#include "graph/graph.hpp"

namespace gcalib::gca {
class MetricsSink;
}  // namespace gcalib::gca

namespace gcalib::gcal {

/// Thrown for semantic errors during execution (unknown variable, use of
/// dstar without a pointer clause, division by zero, pointer out of range).
class EvalError : public std::runtime_error {
 public:
  EvalError(const std::string& message, int line, int column)
      : std::runtime_error("gcal:" + std::to_string(line) + ":" +
                           std::to_string(column) + ": " + message) {}
};

/// Result of running a gcal program.
struct GcalRunResult {
  std::vector<graph::NodeId> labels;  ///< column 0 of the square at the end
  std::size_t generations = 0;
  std::size_t max_congestion = 0;
  unsigned iterations = 0;
};

/// Executes a parsed program over the Hirschberg field layout for graph
/// `g`; the field is initialised with the adjacency bits, d = 0.
/// `on_generation`, when set, observes the machine after every engine step
/// (for differential testing against the native implementation).
class Interpreter {
 public:
  /// Observer: generation label plus the full D field (row-major,
  /// (n+1) x n, with the infinity code as stored).
  using GenerationHook = std::function<void(
      const std::string& label, const std::vector<std::uint64_t>& d_field)>;

  explicit Interpreter(const Program& program) : program_(program) {}

  /// Runs the program to completion on graph `g`; `hook` (optional)
  /// observes the field after every engine step.  `exec` selects the
  /// engine backend (`exec.hands` is overridden to 1 — gcal programs have
  /// a single pointer clause); a width above one shares the process-wide
  /// worker set.  `sink` (optional, non-owning) receives timed per-step
  /// statistics, labelled `name` / `name.subK` as in the hook.
  /// `deadline_ms` (0 = unlimited) bounds the run's wall clock; an expiry
  /// throws gca::DeadlineExceeded at the next sweep chunk boundary.
  GcalRunResult run(const graph::Graph& g, const GenerationHook& hook = {},
                    gca::EngineOptions exec = {},
                    gca::MetricsSink* sink = nullptr,
                    std::int64_t deadline_ms = 0) const;

 private:
  const Program& program_;
};

/// Convenience: parse + run.
[[nodiscard]] GcalRunResult run_gcal(const std::string& source,
                                     const graph::Graph& g);

/// The paper's Hirschberg machine expressed in gcal (Figure 2 as text).
[[nodiscard]] const std::string& hirschberg_gcal_source();

/// The congestion-1 tree-broadcast variant in gcal (exercises the second
/// register e, 'repeat rows' ring doublings and local-only generations).
[[nodiscard]] const std::string& hirschberg_tree_gcal_source();

}  // namespace gcalib::gcal
