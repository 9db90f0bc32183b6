#include "core/cc_solver.hpp"

#include <chrono>

#include "common/assert.hpp"
#include "core/sparse_cc_solver.hpp"
#include "gca/cancel.hpp"

namespace gcalib::core {

const graph::Graph& SolverInput::dense() const {
  if (dense_ != nullptr) return *dense_;
  if (dense_cache_ == nullptr) {
    dense_cache_ = std::make_unique<graph::Graph>(csr_->to_graph());
  }
  return *dense_cache_;
}

const graph::CsrGraph& SolverInput::csr() const {
  if (csr_ != nullptr) return *csr_;
  if (csr_cache_ == nullptr) {
    csr_cache_ =
        std::make_unique<graph::CsrGraph>(graph::CsrGraph::from_graph(*dense_));
  }
  return *csr_cache_;
}

QueryOutcome CcSolver::try_solve(const SolverInput& input,
                                 const RunOptions& options) const {
  QueryOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  try {
    outcome.result = solve(input, options);
    outcome.status = Status{};
  } catch (const gca::DeadlineExceeded& e) {
    outcome.status = Status::error(StatusCode::kDeadlineExceeded, e.what());
  } catch (const gca::Cancelled& e) {
    outcome.status = Status::error(StatusCode::kCancelled, e.what());
  } catch (const ContractViolation& e) {
    outcome.status = Status::error(StatusCode::kFailedPrecondition, e.what());
  } catch (const std::exception& e) {
    outcome.status = Status::error(StatusCode::kInternal, e.what());
  } catch (...) {
    outcome.status = Status::error(StatusCode::kInternal,
                                   "query failed with a non-standard exception");
  }
  outcome.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return outcome;
}

const CcSolver& sparse_cc_solver() {
  static const SparseCcSolver solver;
  return solver;
}

}  // namespace gcalib::core
