#pragma once

/// \file obs.hpp
/// Low-overhead instrumentation: counters, series and RAII spans.
///
/// The subsystem answers "where did the work and the time go?" for a solver
/// run without perturbing it:
///
///  - Counter: monotonically increasing uint64 (LP pivots, relay candidates,
///    Dijkstra heap pops). Increments are relaxed atomic adds; because
///    integer addition is commutative and every count reflects work whose
///    amount is fixed by the determinism contract (docs/PARALLEL.md), final
///    counter values are bit-identical for any thread count.
///  - ScopedTimer: a named span. It feeds the work-attribution profiler
///    (profile.hpp), which keeps calls and wall time per span path, and the
///    trace recorder (trace.hpp); with both off it reads no clock. Wall
///    times are inherently nondeterministic and are therefore segregated
///    from counters in every exported report (run_report.hpp).
///  - Series: an append-only vector of doubles for small deterministic
///    trajectories (e.g. the local-search objective after each step).
///    Append only from sequential code -- appends from inside a parallel
///    region would make the order thread-count-dependent.
///
/// Hot paths use the QP_* macros below, which cache the registry lookup in a
/// function-local static so the steady-state cost is one relaxed atomic add.
/// Configuring with -DQPLACE_OBS=OFF compiles every macro to nothing (the
/// registry API itself stays available so report plumbing still links).
///
/// Span naming scheme (docs/OBSERVABILITY.md): dot-separated
/// `subsystem.phase`, lowercase, e.g. "lp.solve", "qpp.relay_sweep",
/// "ssqpp.round". Counters reuse the same prefixes.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#ifndef QPLACE_OBS
#define QPLACE_OBS 1
#endif

namespace qp::obs {

class Registry;

/// Profiler fast-path hooks (profile.cpp). Counter::add consults the flag
/// with one relaxed load; only when a profile is being collected does it pay
/// for per-thread attribution of the delta to the innermost open span.
namespace profile_detail {
extern std::atomic<bool> g_profile_enabled;
void on_counter_add(std::uint32_t id, std::uint64_t delta);
}  // namespace profile_detail

/// Monotonic event counter. Address-stable once created by the Registry, so
/// the QP_COUNTER_ADD macro may cache a reference across reset_all().
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (profile_detail::g_profile_enabled.load(std::memory_order_relaxed)) {
      profile_detail::on_counter_add(id_, delta);
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class Registry;  // assigns id_ at registration

  std::atomic<std::uint64_t> value_{0};
  std::uint32_t id_ = 0;  ///< registry-assigned, index into counter_names()
};

/// Process-wide registry of named instruments. Creation takes a mutex;
/// returned references stay valid for the process lifetime (node-based
/// containers), so hot paths resolve a name once and cache the reference.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  /// Appends to the named series. Sequential-code-only (see file comment).
  void append_series(const std::string& name, double value);

  /// Snapshots for export/tests. Counters with value 0 are included, so a
  /// snapshot after reset_all() still lists every instrument ever touched.
  std::map<std::string, std::uint64_t> counter_values() const;
  /// Counter names indexed by the id stamped into each Counter at
  /// registration; the profiler uses it to turn ids back into names.
  std::vector<std::string> counter_names() const;
  std::map<std::string, std::vector<double>> series_values() const;

  /// Zeroes every instrument (registrations and addresses survive). Call
  /// between runs that must be compared, never concurrently with writers.
  void reset_all();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::vector<std::string> counter_names_;  ///< index == Counter::id_
  std::map<std::string, std::vector<double>> series_;
};

/// RAII span: when profiling is enabled (profile.hpp) it opens a node of the
/// call tree and credits its duration there; when tracing is enabled
/// (trace.hpp) it records a Chrome trace_event slice. With both off it costs
/// two relaxed loads and reads no clock. \p name must outlive the span;
/// pass a string literal.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  /// Snapshots of the profiler and tracer flags at entry, so enter/exit
  /// events stay paired even if either is toggled mid-span.
  bool profiled_ = false;
  bool traced_ = false;
};

/// True when the instrumentation macros are compiled in.
constexpr bool compiled_in() { return QPLACE_OBS != 0; }

}  // namespace qp::obs

#if QPLACE_OBS

#define QP_OBS_CONCAT_IMPL(a, b) a##b
#define QP_OBS_CONCAT(a, b) QP_OBS_CONCAT_IMPL(a, b)

/// Times the enclosing scope under `name` (string literal).
#define QP_SPAN(name) \
  ::qp::obs::ScopedTimer QP_OBS_CONCAT(qp_obs_span_, __LINE__)(name)

/// Adds `delta` to the named counter; the registry lookup happens once.
#define QP_COUNTER_ADD(name, delta)                                    \
  do {                                                                 \
    static ::qp::obs::Counter& QP_OBS_CONCAT(qp_obs_counter_,          \
                                             __LINE__) =              \
        ::qp::obs::Registry::instance().counter(name);                 \
    QP_OBS_CONCAT(qp_obs_counter_, __LINE__)                           \
        .add(static_cast<std::uint64_t>(delta));                       \
  } while (false)

/// Appends `value` to the named series. Sequential code only.
#define QP_SERIES_APPEND(name, value)                     \
  ::qp::obs::Registry::instance().append_series(          \
      name, static_cast<double>(value))

#else

#define QP_SPAN(name) static_cast<void>(0)
#define QP_COUNTER_ADD(name, delta) \
  static_cast<void>(sizeof((name), (delta), 0))
#define QP_SERIES_APPEND(name, value) \
  static_cast<void>(sizeof((name), (value), 0))

#endif  // QPLACE_OBS
