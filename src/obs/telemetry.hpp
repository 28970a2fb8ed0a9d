#pragma once

/// \file telemetry.hpp
/// Live telemetry: a streamed metrics time series and a TTY progress meter.
///
/// Everything in obs so far is post-hoc -- counters, histograms and logs
/// become visible only after a run exits. This file adds the *online* view
/// (docs/OBSERVABILITY.md §8):
///
///  - MetricsSnapshotter: samples the obs Registry (counters, gauges) plus
///    caller-registered LogHistograms and caller-provided values, and
///    streams each sample as one `qplace.timeseries.v2` JSONL line the
///    moment it is taken, so `tail -f` of the series file is the live view.
///    Samples are keyed by *simulation time* for the deterministic subtree
///    -- the simulator's event loop is sequential, so the registry state at
///    sim-time t is a pure function of (instance, placement, config) and
///    the line sequence obeys the docs/PARALLEL.md determinism contract --
///    and by wall time for the rest: the per-line "deterministic" objects
///    are byte-identical across thread counts.
///  - ProgressMeter: a single live TTY line (accesses/s, availability, p99
///    vs the certified bound) redrawn in place for long runs. Rates are
///    wall-clock derived and never feed any deterministic artifact.
///
/// Thread-safety: none; both are driven from the thread that owns the
/// deterministic state (the sim event loop).

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/histogram.hpp"

namespace qp::obs {

/// Streaming time series over the obs Registry: one JSONL line per sample.
///
/// Document (`qplace.timeseries.v2`): a header line written by the
/// constructor, then one line per sample() call:
///   {"schema": "qplace.timeseries.v2", "context": {...}}
///   {"deterministic": {"t": <sim_time>, "counters": {...},
///                      "values": {...}, "histograms": {<name>:
///                      {"count": N, "sum": S, "p50": q|null, ...}}},
///    "nondeterministic": {"wall_ms": W, "gauges": {...}}}
/// Histogram quantiles are null while the histogram is empty (there is no
/// sample to bound; see LogHistogram::quantile).
class MetricsSnapshotter {
 public:
  /// Writes the header line -- schema plus the string-valued \p context
  /// (like the run report's context map) -- to \p out and flushes it.
  /// \p out must outlive the snapshotter; write errors surface in its
  /// stream state for the owner to check.
  MetricsSnapshotter(std::ostream& out,
                     const std::map<std::string, std::string>& context);

  /// Registers a histogram to digest at every sample. \p histogram is
  /// borrowed and must stay alive until unregistered (pass nullptr to
  /// unregister -- the simulator does this for its result histograms before
  /// returning); re-registering a name replaces the pointer.
  void watch_histogram(const std::string& name, const LogHistogram* histogram);

  /// Takes one sample keyed by \p sim_time -- all Registry counters and
  /// gauges, every watched histogram, plus the caller-provided deterministic
  /// \p values (e.g. the simulator's current availability) -- and appends
  /// it to the stream as one complete, flushed line.
  void sample(double sim_time,
              const std::map<std::string, double>& values = {});

  /// Sample lines written so far (the header not counted).
  std::uint64_t samples() const { return samples_; }

 private:
  std::ostream& out_;
  std::map<std::string, const LogHistogram*> watched_;
  std::uint64_t samples_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// One progress tick, sim-time domain. Produced by the simulator
/// (sim::SimulationConfig::on_progress); consumed by ProgressMeter.
struct ProgressStats {
  double sim_time = 0.0;
  double duration = 0.0;        ///< horizon, for the percent display
  std::int64_t resolved = 0;    ///< completed + failed so far (measured)
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  double availability = 1.0;    ///< completed / resolved; 1 when none
  double p99 = 0.0;             ///< current p99 access delay; NaN when empty
};

/// Live single-line TTY progress display:
///   sim 42% t=420/1000 | 8123 ok + 4 failed (2031/s) | avail 0.9995 |
///   p99 3.21 = 0.71x bound
/// Redraws in place (carriage return, no newline) at most every ~100 ms of
/// wall time; finish() draws the final state and terminates the line. The
/// accesses/s rate is wall-clock derived and purely informational.
///
/// When the underlying stream is one of the standard streams and it is not
/// attached to a TTY (CI logs, `2>file` redirections), live redraws are
/// suppressed automatically: update() only records the latest stats and
/// finish() prints a single plain summary line -- no carriage returns or
/// erase padding ever reach a log file.
class ProgressMeter {
 public:
  /// \p certified_bound is the analytic delay bound the p99 is compared
  /// against (e.g. the Thm 1.2 certified mean bound); pass NaN to omit the
  /// comparison. \p out must outlive the meter (typically std::cerr).
  /// Liveness is auto-detected: isatty(stderr) for std::cerr/std::clog,
  /// isatty(stdout) for std::cout, live for any other stream (an
  /// ostringstream in tests has no file descriptor to consult).
  ProgressMeter(std::ostream& out, double certified_bound);

  /// As above with liveness forced; for tests and callers that already know
  /// the answer (e.g. an explicit --progress=plain mode).
  ProgressMeter(std::ostream& out, double certified_bound, bool live);

  /// True when in-place redraws are active.
  bool live() const { return live_; }

  void update(const ProgressStats& stats);
  /// Final unthrottled redraw plus a newline; idempotent. In non-live mode
  /// this is the only output the meter produces.
  void finish();

 private:
  void draw(const ProgressStats& stats);

  std::ostream& out_;
  double certified_bound_;
  bool live_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_draw_;
  ProgressStats last_stats_;
  bool drew_ = false;
  bool finished_ = false;
};

}  // namespace qp::obs
