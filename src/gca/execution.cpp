#include "gca/execution.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/cli.hpp"

namespace gcalib::gca {

const char* to_string(SweepMode mode) {
  switch (mode) {
    case SweepMode::kDense:
      return "dense";
    case SweepMode::kSparse:
      return "sparse";
  }
  GCALIB_ASSERT_MSG(false, "unreachable sweep mode");
  return "?";
}

SweepMode parse_sweep_mode(const std::string& name) {
  if (name == "dense") return SweepMode::kDense;
  if (name == "sparse") return SweepMode::kSparse;
  GCALIB_EXPECTS_MSG(
      false, "unknown sweep mode '" + name + "' (expected dense | sparse)");
  return SweepMode::kSparse;
}

const char* to_string(SparseMode mode) {
  switch (mode) {
    case SparseMode::kSync:
      return "sync";
    case SparseMode::kAuto:
      return "auto";
  }
  GCALIB_ASSERT_MSG(false, "unreachable sparse mode");
  return "?";
}

SparseMode parse_sparse_mode(const std::string& name) {
  if (name == "sync") return SparseMode::kSync;
  if (name == "auto") return SparseMode::kAuto;
  GCALIB_EXPECTS_MSG(false, "unknown sparse mode '" + name +
                                "' (expected sync | auto)");
  return SparseMode::kAuto;
}

void EngineOptions::validate() const {
  GCALIB_EXPECTS_MSG(hands >= 1, "engine options: hands must be >= 1");
  GCALIB_EXPECTS_MSG(threads >= 1, "engine options: threads must be >= 1");
  GCALIB_EXPECTS_MSG(!(record_access && parallel()),
                     "engine options: access-edge recording requires a "
                     "sequential sweep (threads == 1)");
}

EngineOptions options_from_flags(const cli::EngineFlags& flags) {
  const EngineOptions options =
      EngineOptions{}
          .with_threads(flags.threads)
          .with_instrumentation(flags.instrumentation)
          .with_record_access(flags.record_access)
          .with_sweep(parse_sweep_mode(flags.sweep))
          .with_sparse_mode(parse_sparse_mode(flags.sparse_mode));
  options.validate();
  return options;
}

EngineOptions options_from_flags_or_exit(const cli::EngineFlags& flags) {
  try {
    return options_from_flags(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace gcalib::gca
