// Minimal command-line option parser for examples and bench binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean flags.
// Unknown options raise errors so typos in experiment sweeps fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gcalib {

/// Parsed command line: option map plus positional arguments.
class CliArgs {
 public:
  /// Parses argv; options must be declared via `spec` (name -> takes_value).
  /// Throws std::runtime_error on unknown options or missing values.
  static CliArgs parse(int argc, const char* const* argv,
                       const std::map<std::string, bool>& spec);

  /// Like `parse`, but prints the error and the accepted options to stderr
  /// and exits with status 64 (EX_USAGE) instead of throwing.  "--help" is
  /// answered with the option list on stdout and exit 0.  Intended for the
  /// example/bench binaries' main().
  static CliArgs parse_or_exit(int argc, const char* const* argv,
                               const std::map<std::string, bool>& spec);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric values are read strictly: the whole value must be one decimal
  /// literal in range ("12abc", "abc", "" and "99999999999999999999" are
  /// not; neither is a non-finite double).  On anything else, arguments
  /// from `parse_or_exit` print one line naming the flag and the value and
  /// exit with status 2; arguments from `parse` throw std::runtime_error.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// A comma-separated list of positive integers ("4,8,16": sweep sizes,
  /// thread counts), each item read as strictly as `get_int` and rejected
  /// the same way, with one line naming the flag and the item.
  [[nodiscard]] std::vector<std::size_t> get_count_list(
      const std::string& name, std::vector<std::size_t> fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  [[noreturn]] void reject_value(const std::string& name,
                                 const std::string& text,
                                 const std::string& problem) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool exit_on_bad_value_ = false;  ///< built by parse_or_exit
};

namespace cli {

/// The engine flags every tool accepts, so the engine backend and its
/// observability are selectable uniformly across examples and benches:
///   --threads N            sweep width (default 1; above 1 the sweep runs
///                          on the shared worker pool)
///   --sweep MODE           dense | sparse (default "sparse"): whether the
///                          engine honours per-generation active regions
///   --sparse-mode NAME     sync | auto (default "auto"): the CSR engine —
///                          double-buffered synchronous hook + jump sweeps
///                          (the golden reference), or auto: the one-lane
///                          link pass over the edges unless a resilience
///                          feature needs the round loop (DESIGN.md §14)
///   --no-instrumentation   disable per-step congestion statistics
///   --record-access        record individual (reader, target) access edges
///                          (requires an effectively sequential sweep)
///   --trace-out FILE       write a Chrome trace_event JSON of the run
///   --metrics-out FILE     write per-step metrics (.json = JSON, else CSV)
///   --deadline-ms N        wall-clock budget per run/query (0 = unlimited)
///   --checkpoint-dir DIR   durable checkpoints: resume from an intact
///                          checkpoint found in DIR and keep it current
///   --retries N            re-attempts after a detected-corruption failure
/// Which connected-components engine runs is not an engine flag: production
/// entry points (core::Runner, gcad) always run the CSR engine, and
/// `gca_cc_tool --substrate dense|sparse_csr` picks one by name
/// (DESIGN.md §12).
/// The sweep mode and sparse mode are carried as their spelled names;
/// convert with gca::parse_sweep_mode / gca::parse_sparse_mode (or build
/// validated engine options with gca::options_from_flags) at the point of
/// use — common/ stays below gca/ in the layering.
struct EngineFlags {
  unsigned threads = 1;
  std::string sweep = "sparse";
  std::string sparse_mode = "auto";
  bool instrumentation = true;
  bool record_access = false;
  std::string trace_out;    ///< empty = tracing disabled
  std::string metrics_out;  ///< empty = metrics export disabled
  std::int64_t deadline_ms = 0;  ///< 0 = unlimited
  std::string checkpoint_dir;    ///< empty = no durable checkpoints
  unsigned retries = 0;          ///< 0 = fail on first detected corruption

  /// True when the tool should attach a metrics sink to the run.
  [[nodiscard]] bool wants_metrics() const {
    return !trace_out.empty() || !metrics_out.empty();
  }
};

/// Adds the shared engine options to a tool's option spec.
[[nodiscard]] std::map<std::string, bool> with_engine_flags(
    std::map<std::string, bool> spec);

/// Extracts the shared engine flags; throws std::runtime_error on invalid
/// values (e.g. --threads 0).  Flags missing from the tool's spec read as
/// their defaults, so a tool that declares only a subset (gcad) still gets
/// the same checks for the flags it does declare.
[[nodiscard]] EngineFlags engine_flags(const CliArgs& args);

}  // namespace cli

}  // namespace gcalib
