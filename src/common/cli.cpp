#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <system_error>
#include <type_traits>

namespace gcalib {

namespace {

/// Reads all of `text` as one T literal into `value`; returns what is
/// wrong with it, or null.
template <typename T>
const char* parse_whole(const std::string& text, T& value) {
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) return "is out of range";
  if constexpr (std::is_integral_v<T>) {
    if (ec != std::errc{} || stop != end) return "is not an integer";
  } else {
    if (ec != std::errc{} || stop != end || !std::isfinite(value)) {
      return "is not a finite number";
    }
  }
  return nullptr;
}

void print_options(std::FILE* out, const std::map<std::string, bool>& spec) {
  std::fprintf(out, "options:\n");
  for (const auto& [name, takes_value] : spec) {
    std::fprintf(out, "  --%s%s\n", name.c_str(),
                 takes_value ? " <value>" : "");
  }
}

}  // namespace

CliArgs CliArgs::parse(int argc, const char* const* argv,
                       const std::map<std::string, bool>& spec) {
  CliArgs out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = spec.find(name);
    if (it == spec.end()) {
      throw std::runtime_error("unknown option --" + name);
    }
    const bool takes_value = it->second;
    if (!takes_value) {
      if (inline_value) {
        throw std::runtime_error("option --" + name + " does not take a value");
      }
      out.values_[name] = "true";
      continue;
    }
    if (inline_value) {
      out.values_[name] = *inline_value;
    } else {
      if (i + 1 >= argc) {
        throw std::runtime_error("option --" + name + " requires a value");
      }
      out.values_[name] = argv[++i];
    }
  }
  return out;
}

CliArgs CliArgs::parse_or_exit(int argc, const char* const* argv,
                               const std::map<std::string, bool>& spec) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_options(stdout, spec);
      std::exit(0);
    }
  }
  try {
    CliArgs args = parse(argc, argv, spec);
    args.exit_on_bad_value_ = true;
    return args;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_options(stderr, spec);
    std::exit(64);
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

void CliArgs::reject_value(const std::string& name,
                           const std::string& problem) const {
  const std::string message =
      "--" + name + ": '" + values_.at(name) + "' " + problem;
  if (exit_on_bad_value_) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    std::exit(2);
  }
  throw std::runtime_error(message);
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  if (const char* problem = parse_whole(it->second, value)) {
    reject_value(name, problem);
  }
  return value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (const char* problem = parse_whole(it->second, value)) {
    reject_value(name, problem);
  }
  return value;
}

namespace cli {

std::map<std::string, bool> with_engine_flags(
    std::map<std::string, bool> spec) {
  spec.emplace("threads", true);
  spec.emplace("sweep", true);
  spec.emplace("sparse-mode", true);
  spec.emplace("kernels", true);
  spec.emplace("no-instrumentation", false);
  spec.emplace("record-access", false);
  spec.emplace("trace-out", true);
  spec.emplace("metrics-out", true);
  spec.emplace("deadline-ms", true);
  spec.emplace("checkpoint-dir", true);
  spec.emplace("retries", true);
  return spec;
}

EngineFlags engine_flags(const CliArgs& args) {
  EngineFlags flags;
  const std::int64_t threads = args.get_int("threads", 1);
  if (threads < 1) {
    throw std::runtime_error("--threads must be >= 1");
  }
  flags.threads = static_cast<unsigned>(threads);
  flags.sweep = args.get_string("sweep", flags.sweep);
  flags.sparse_mode = args.get_string("sparse-mode", flags.sparse_mode);
  flags.kernels = args.get_string("kernels", flags.kernels);
  flags.instrumentation = !args.has("no-instrumentation");
  flags.record_access = args.has("record-access");
  flags.trace_out = args.get_string("trace-out", "");
  flags.metrics_out = args.get_string("metrics-out", "");
  const std::int64_t deadline = args.get_int("deadline-ms", 0);
  if (deadline < 0) {
    throw std::runtime_error("--deadline-ms must be >= 0 (0 = unlimited)");
  }
  flags.deadline_ms = deadline;
  flags.checkpoint_dir = args.get_string("checkpoint-dir", "");
  const std::int64_t retries = args.get_int("retries", 0);
  if (retries < 0 || retries > 1000) {
    throw std::runtime_error("--retries must be in [0, 1000]");
  }
  flags.retries = static_cast<unsigned>(retries);
  return flags;
}

}  // namespace cli

}  // namespace gcalib
