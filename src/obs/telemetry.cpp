#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <ostream>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace qp::obs {

namespace {

using json::append_double;
using json::append_object;
using json::append_uint;

/// NaN has no JSON literal; quantiles of an empty histogram render as null
/// so readers cannot mistake "no data" for a measured zero (same rule as
/// LogHistogram::to_json).
void append_quantile(std::string& out, const LogHistogram& histogram,
                     double q) {
  if (histogram.count() == 0) {
    out += "null";
  } else {
    append_double(out, histogram.quantile(q));
  }
}

/// \p values rendered as JSON numbers, ready for append_object: counters
/// as exact integers, everything else as %.17g.
template <typename T>
std::map<std::string, std::string> rendered_numbers(
    const std::map<std::string, T>& values) {
  std::map<std::string, std::string> rendered;
  for (const auto& [name, value] : values) {
    std::string cell;
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      append_uint(cell, value);
    } else {
      append_double(cell, value);
    }
    rendered[name] = cell;
  }
  return rendered;
}

}  // namespace

MetricsSnapshotter::MetricsSnapshotter(
    std::ostream& out, const std::map<std::string, std::string>& context)
    : out_(out), epoch_(std::chrono::steady_clock::now()) {
  std::string header = "{\"schema\": \"qplace.timeseries.v2\", \"context\": ";
  std::map<std::string, std::string> rendered;
  for (const auto& [key, value] : context) {
    json::append_string(rendered[key], value);
  }
  append_object(header, rendered);
  header += "}\n";
  out_ << header;
  out_.flush();
}

void MetricsSnapshotter::watch_histogram(const std::string& name,
                                         const LogHistogram* histogram) {
  if (histogram == nullptr) {
    watched_.erase(name);
  } else {
    watched_[name] = histogram;
  }
}

void MetricsSnapshotter::sample(double sim_time,
                                const std::map<std::string, double>& values) {
  const Registry& registry = Registry::instance();
  std::string line = "{\"deterministic\": {\"t\": ";
  append_double(line, sim_time);
  line += ", \"counters\": ";
  append_object(line, rendered_numbers(registry.counter_values()));
  line += ", \"values\": ";
  append_object(line, rendered_numbers(values));
  line += ", \"histograms\": ";
  std::map<std::string, std::string> histograms;
  for (const auto& [name, histogram] : watched_) {
    std::string& cell = histograms[name];
    cell = "{\"count\": ";
    append_uint(cell, histogram->count());
    cell += ", \"sum\": ";
    append_double(cell, histogram->sum());
    cell += ", \"p50\": ";
    append_quantile(cell, *histogram, 0.50);
    cell += ", \"p90\": ";
    append_quantile(cell, *histogram, 0.90);
    cell += ", \"p99\": ";
    append_quantile(cell, *histogram, 0.99);
    cell += "}";
  }
  append_object(line, histograms);
  line += "}, \"nondeterministic\": {\"wall_ms\": ";
  append_double(line,
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - epoch_)
                    .count());
  line += "}}\n";
  // One write plus a flush per line: a reader tailing the file sees whole
  // samples (at most a trailing partial line while a write is in flight).
  out_ << line;
  out_.flush();
  ++samples_;
}

namespace {

/// In-place redraws are only appropriate on an interactive terminal. For
/// the standard streams the kernel knows the answer; any other ostream
/// (test ostringstreams) has no file descriptor, and a caller wiring one up
/// explicitly asked for output, so it counts as live.
bool stream_is_tty(const std::ostream& out) {
#if defined(__unix__) || defined(__APPLE__)
  if (&out == &std::cerr || &out == &std::clog) return isatty(2) != 0;
  if (&out == &std::cout) return isatty(1) != 0;
#endif
  return true;
}

}  // namespace

ProgressMeter::ProgressMeter(std::ostream& out, double certified_bound)
    : ProgressMeter(out, certified_bound, stream_is_tty(out)) {}

ProgressMeter::ProgressMeter(std::ostream& out, double certified_bound,
                             bool live)
    : out_(out),
      certified_bound_(certified_bound),
      live_(live),
      start_(std::chrono::steady_clock::now()),
      last_draw_(start_) {}

void ProgressMeter::update(const ProgressStats& stats) {
  last_stats_ = stats;
  if (!live_) return;  // non-TTY: only finish() writes anything
  const auto now = std::chrono::steady_clock::now();
  // ~10 redraws/s keeps a fast event loop from spending its time on stderr.
  if (drew_ && now - last_draw_ < std::chrono::milliseconds(100)) return;
  last_draw_ = now;
  draw(stats);
}

void ProgressMeter::finish() {
  if (finished_) return;
  finished_ = true;
  draw(last_stats_);
  out_ << "\n";
  out_.flush();
}

void ProgressMeter::draw(const ProgressStats& stats) {
  drew_ = true;
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double rate = elapsed_s > 0.0
                          ? static_cast<double>(stats.resolved) / elapsed_s
                          : 0.0;
  const double percent =
      stats.duration > 0.0
          ? 100.0 * std::min(1.0, stats.sim_time / stats.duration)
          : 0.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%ssim %3.0f%% t=%.0f/%.0f | %lld ok + %lld failed (%.0f/s) "
                "| avail %.4f",
                live_ ? "\r" : "", percent, stats.sim_time, stats.duration,
                static_cast<long long>(stats.completed),
                static_cast<long long>(stats.failed), rate,
                stats.availability);
  out_ << line;
  if (!std::isnan(stats.p99)) {
    std::snprintf(line, sizeof(line), " | p99 %.3g", stats.p99);
    out_ << line;
    if (!std::isnan(certified_bound_) && certified_bound_ > 0.0) {
      std::snprintf(line, sizeof(line), " = %.2fx bound",
                    stats.p99 / certified_bound_);
      out_ << line;
    }
  }
  if (live_) out_ << "    ";  // erase leftovers from a longer previous line
  out_.flush();
}

}  // namespace qp::obs
