#include "gca/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/csv.hpp"
#include "common/format.hpp"

namespace gcalib::gca {

namespace {

/// Minimal JSON string escaping (labels are internal identifiers, but a
/// user-supplied step label must not be able to break the document).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Microseconds with nanosecond precision, relative to `base_ns` — the
/// unit chrome://tracing expects for "ts"/"dur".
std::string us_from(std::uint64_t ns, std::uint64_t base_ns) {
  const std::uint64_t rel = ns >= base_ns ? ns - base_ns : 0;
  const std::string frac = std::to_string(rel % 1000);
  return std::to_string(rel / 1000) + "." +
         std::string(3 - frac.size(), '0') + frac;
}

std::string format_ms(std::uint64_t ns) {
  return fixed(static_cast<double>(ns) / 1e6, 3) + " ms";
}

}  // namespace

void Trace::on_step(const GenerationStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  steps_.push_back(stats);
}

std::size_t Trace::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return steps_.size();
}

void Trace::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  steps_.clear();
}

void Trace::write_chrome_trace(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Normalise to the first step so timestamps are small and the viewport
  // opens on the run instead of hours into the steady clock's epoch.
  const std::uint64_t base =
      steps_.empty() ? 0 : steps_.front().start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& name, const char* cat,
                        unsigned tid, std::uint64_t start_ns,
                        std::uint64_t duration_ns, const std::string& args) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(name) << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
       << us_from(start_ns, base) << ",\"dur\":" << us_from(duration_ns, 0)
       << ",\"args\":{" << args << "}}";
  };
  for (const GenerationStats& s : steps_) {
    const std::string name = s.label.empty()
                                 ? "step" + std::to_string(s.generation)
                                 : s.label;
    emit(name, "step", 0, s.start_ns, s.duration_ns,
         "\"generation\":" + std::to_string(s.generation) +
             ",\"active_cells\":" + std::to_string(s.active_cells) +
             ",\"total_reads\":" + std::to_string(s.total_reads) +
             ",\"max_congestion\":" + std::to_string(s.max_congestion));
    for (const LaneTiming& lane : s.lane_times) {
      emit(name + "/lane" + std::to_string(lane.lane), "lane", lane.lane + 1,
           lane.start_ns, lane.duration_ns,
           "\"cells\":" + std::to_string(lane.cells));
    }
  }
  os << "\n]}\n";
}

void Trace::write_metrics_csv(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CsvWriter csv({"generation", "label", "start_ns", "duration_ns",
                 "cell_count", "cells_swept", "active_cells", "total_reads",
                 "cells_read", "max_congestion", "lanes"});
  for (const GenerationStats& s : steps_) {
    csv.add_row({std::to_string(s.generation), s.label,
                 std::to_string(s.start_ns), std::to_string(s.duration_ns),
                 std::to_string(s.cell_count), std::to_string(s.cells_swept),
                 std::to_string(s.active_cells), std::to_string(s.total_reads),
                 std::to_string(s.cells_read),
                 std::to_string(s.max_congestion),
                 std::to_string(s.lane_times.size())});
  }
  os << csv.render();
}

void Trace::write_metrics_json(std::ostream& os) const {
  const TraceSummary sum = summary();
  const std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"steps\":[";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const GenerationStats& s = steps_[i];
    os << (i == 0 ? "" : ",") << "\n{\"generation\":" << s.generation
       << ",\"label\":\"" << json_escape(s.label) << "\",\"start_ns\":"
       << s.start_ns << ",\"duration_ns\":" << s.duration_ns
       << ",\"cell_count\":" << s.cell_count << ",\"cells_swept\":"
       << s.cells_swept << ",\"active_cells\":"
       << s.active_cells << ",\"total_reads\":" << s.total_reads
       << ",\"cells_read\":" << s.cells_read << ",\"max_congestion\":"
       << s.max_congestion << ",\"lanes\":[";
    for (std::size_t l = 0; l < s.lane_times.size(); ++l) {
      const LaneTiming& lane = s.lane_times[l];
      os << (l == 0 ? "" : ",") << "{\"lane\":" << lane.lane
         << ",\"start_ns\":" << lane.start_ns << ",\"duration_ns\":"
         << lane.duration_ns << ",\"cells\":" << lane.cells << "}";
    }
    os << "]}";
  }
  os << "\n],\"summary\":{\"steps\":" << sum.steps << ",\"wall_ns\":"
     << sum.wall_ns << ",\"span_ns\":" << sum.span_ns
     << ",\"parallel_steps\":" << sum.parallel_steps
     << ",\"lane_utilisation\":" << fixed(sum.lane_utilisation, 4) << "}}\n";
}

TraceSummary Trace::summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TraceSummary sum;
  sum.steps = steps_.size();
  std::uint64_t first_start = 0;
  std::uint64_t last_end = 0;
  std::uint64_t lane_busy_ns = 0;
  std::uint64_t lane_capacity_ns = 0;
  for (const GenerationStats& s : steps_) {
    sum.wall_ns += s.duration_ns;
    if (s.start_ns != 0) {
      if (first_start == 0) first_start = s.start_ns;
      last_end = std::max(last_end, s.start_ns + s.duration_ns);
    }
    if (!s.lane_times.empty()) {
      ++sum.parallel_steps;
      lane_capacity_ns += s.duration_ns * s.lane_times.size();
      for (const LaneTiming& lane : s.lane_times) {
        lane_busy_ns += lane.duration_ns;
      }
    }
    LabelSummary* row = nullptr;
    for (LabelSummary& existing : sum.by_label) {
      if (existing.label == s.label) {
        row = &existing;
        break;
      }
    }
    if (row == nullptr) {
      sum.by_label.push_back(LabelSummary{s.label, 0, 0, 0, 0, 0});
      row = &sum.by_label.back();
    }
    ++row->steps;
    row->total_ns += s.duration_ns;
    row->max_ns = std::max(row->max_ns, s.duration_ns);
    row->active_cells += s.active_cells;
    row->total_reads += s.total_reads;
  }
  if (last_end > first_start) sum.span_ns = last_end - first_start;
  if (lane_capacity_ns > 0) {
    sum.lane_utilisation =
        static_cast<double>(lane_busy_ns) / static_cast<double>(lane_capacity_ns);
  }
  return sum;
}

std::string format_summary(const TraceSummary& summary) {
  std::string out = "trace: " + std::to_string(summary.steps) + " steps, " +
                    format_ms(summary.wall_ns) + " swept (span " +
                    format_ms(summary.span_ns) + "), lane utilisation " +
                    fixed(summary.lane_utilisation * 100.0, 1) + "% over " +
                    std::to_string(summary.parallel_steps) +
                    " parallel steps\n";
  std::size_t width = 5;
  for (const LabelSummary& row : summary.by_label) {
    width = std::max(width, row.label.size());
  }
  out += "  " + pad_right("label", width) + "  steps  total        mean\n";
  for (const LabelSummary& row : summary.by_label) {
    const std::uint64_t mean =
        row.steps == 0 ? 0 : row.total_ns / row.steps;
    out += "  " + pad_right(row.label, width) + "  " +
           pad_left(std::to_string(row.steps), 5) + "  " +
           pad_left(format_ms(row.total_ns), 11) + "  " +
           pad_left(format_ms(mean), 10) + "\n";
  }
  return out;
}

namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

}  // namespace

void write_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out = open_or_throw(path);
  trace.write_chrome_trace(out);
  if (!out) throw std::runtime_error("error while writing " + path);
}

void write_metrics_file(const Trace& trace, const std::string& path) {
  std::ofstream out = open_or_throw(path);
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    trace.write_metrics_json(out);
  } else {
    trace.write_metrics_csv(out);
  }
  if (!out) throw std::runtime_error("error while writing " + path);
}

ServiceCountersSnapshot ServiceCounters::snapshot() const {
  ServiceCountersSnapshot s;
  s.accepted = accepted.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full.load(std::memory_order_relaxed);
  s.rejected_deadline = rejected_deadline.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining.load(std::memory_order_relaxed);
  s.shed_overload = shed_overload.load(std::memory_order_relaxed);
  s.completed_ok = completed_ok.load(std::memory_order_relaxed);
  s.expired = expired.load(std::memory_order_relaxed);
  s.failed = failed.load(std::memory_order_relaxed);
  s.recovered = recovered.load(std::memory_order_relaxed);
  s.batches = batches.load(std::memory_order_relaxed);
  s.drained = drained.load(std::memory_order_relaxed);
  s.restored = restored.load(std::memory_order_relaxed);
  s.journal_writes = journal_writes.load(std::memory_order_relaxed);
  s.overload_transitions =
      overload_transitions.load(std::memory_order_relaxed);
  s.overload_level = overload_level.load(std::memory_order_relaxed);
  return s;
}

namespace {

constexpr std::pair<const char*, std::uint64_t ServiceCountersSnapshot::*>
    kServiceFields[] = {
        {"accepted", &ServiceCountersSnapshot::accepted},
        {"rejected_queue_full", &ServiceCountersSnapshot::rejected_queue_full},
        {"rejected_deadline", &ServiceCountersSnapshot::rejected_deadline},
        {"rejected_draining", &ServiceCountersSnapshot::rejected_draining},
        {"shed_overload", &ServiceCountersSnapshot::shed_overload},
        {"completed_ok", &ServiceCountersSnapshot::completed_ok},
        {"expired", &ServiceCountersSnapshot::expired},
        {"failed", &ServiceCountersSnapshot::failed},
        {"recovered", &ServiceCountersSnapshot::recovered},
        {"batches", &ServiceCountersSnapshot::batches},
        {"drained", &ServiceCountersSnapshot::drained},
        {"restored", &ServiceCountersSnapshot::restored},
        {"journal_writes", &ServiceCountersSnapshot::journal_writes},
        {"overload_transitions",
         &ServiceCountersSnapshot::overload_transitions},
        {"overload_level", &ServiceCountersSnapshot::overload_level},
};

}  // namespace

std::string service_counters_json(const ServiceCountersSnapshot& counters) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, member] : kServiceFields) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(counters.*member);
  }
  out += "}";
  return out;
}

std::string format_service_counters(const ServiceCountersSnapshot& counters) {
  std::string out;
  for (const auto& [name, member] : kServiceFields) {
    const std::size_t width = std::char_traits<char>::length(name);
    out += name;
    out.append(width < 22 ? 22 - width : 1, ' ');
    out += std::to_string(counters.*member);
    out += "\n";
  }
  return out;
}

}  // namespace gcalib::gca
