#pragma once

/// \file profile.hpp
/// Work-attribution profiler: folds span enter/exit events and counter
/// increments into a call-tree profile keyed by span path (e.g.
/// "ssqpp.solve/ssqpp.lp/lp.solve"), where every node carries
///
///  - a **deterministic** map of work-counter deltas attributed to that
///    span's own code (self attribution: each QP_COUNTER_ADD is credited to
///    the innermost span open on the executing thread, exactly once), and
///  - a **nondeterministic** pair of wall time and call counts.
///
/// The deterministic half obeys the docs/PARALLEL.md contract: per-path
/// counter sums are byte-identical at `--threads 1` and `--threads 8`.
/// Two mechanisms make that hold:
///
///  1. Self attribution. A counter increment accrues to the innermost open
///     span *on its own thread*, so no delta is ever double-counted or
///     raced between threads; per-path sums are plain commutative sums of
///     per-increment contributions, and the determinism contract fixes the
///     multiset of increments per span instance.
///  2. Ambient paths. exec::for_each_chunk captures the submitting thread's
///     current span path and re-installs it around every chunk (an
///     "ambient" frame). A chunk that lands on a worker thread -- where no
///     spans are open -- then attributes its work to the same absolute path
///     it would have used had it run inline under the caller's spans.
///     Ambient frames bump no call counts and no wall time; they only
///     anchor attribution.
///
/// Each recording thread folds as it goes: it keeps its own call tree (one
/// node per span path) and a stack of live frames pointing into it. A span
/// enter finds or creates the child node, an exit credits the call and its
/// duration, and a counter add credits the innermost node. Nothing is
/// buffered per event, so a profile cannot truncate however long the run.
///
/// Merging the per-thread trees happens once, from sequential code, after
/// parallel regions have completed. No wall clock is read here -- span
/// durations arrive from ScopedTimer, so the profile itself stays
/// clock-free.
///
/// The folded tree is part of the run report (run_report.hpp): its counter
/// half under `deterministic.profile`, its wall half under
/// `nondeterministic.profile`. `--profile-folded` renders the same tree as
/// flamegraph input.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qp::obs {

/// One node of the folded profile. `counters` is the deterministic subtree;
/// `calls`/`total_nanos` (and derived self time) are wall-class data.
struct ProfileNode {
  std::uint64_t calls = 0;
  /// Summed duration of every call of the span, on whichever thread it ran.
  /// A span entered on pool workers sums its threads' durations, so under a
  /// parallel region this is thread time rather than wall time, and a child
  /// can read longer than its parent.
  std::int64_t total_nanos = 0;
  std::map<std::string, std::uint64_t> counters;  ///< self-attributed deltas
  std::map<std::string, ProfileNode> children;    ///< keyed by span name

  /// Time not covered by child spans, clamped at 0: clock jitter, and
  /// children run on pool workers (see total_nanos), can make children sum
  /// past the parent, whose self time then reads 0.
  std::int64_t self_nanos() const;

  /// The deterministic half, {"counters": {...}, "children": {...}} per
  /// node. Keys are sorted, so equal attribution means equal bytes.
  std::string counters_json() const;

  /// The wall half, {"calls": N, "children": {...}, "self_ms": S,
  /// "total_ms": T} per node.
  std::string wall_json() const;

  /// Folded-stack lines ("a;b;c <self-wall-micros>\n" per node below this
  /// one), the input format of standard flamegraph renderers
  /// (flamegraph.pl, inferno, speedscope). Wall-derived and therefore
  /// nondeterministic.
  std::string folded() const;
};

/// Process-wide profile collector. Enabled by `--stats-out` and
/// `--profile-folded` (tools/qplace.cpp); recording costs one relaxed atomic
/// load when off.
class ProfileCollector {
 public:
  static ProfileCollector& instance();

  /// Enables/disables recording (spans, ambient frames, counter deltas).
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Span hooks, called by ScopedTimer when enabled. The duration is
  /// supplied by the timer so the profiler never reads a clock. An exit
  /// with no span open above the innermost ambient frame is ignored.
  void on_span_enter(const char* name);
  void on_span_exit(const char* name, std::int64_t dur_nanos);

  /// The calling thread's current absolute span path (ambient frame + the
  /// spans opened above it, or all open spans when no ambient frame is
  /// active). Used by exec::for_each_chunk to capture the submission path.
  std::vector<const char*> current_path() const;

  /// Installs / removes an ambient frame: attribution jumps to the absolute
  /// \p path (names must be string literals) without bumping call counts.
  /// Prefer ProfileAmbientScope.
  void ambient_enter(const std::vector<const char*>& path);
  void ambient_exit();

  /// Drops every thread's call tree and live frames. Call from
  /// sequential code between runs that must be compared.
  void clear();

  /// Merges every thread's call tree into the synthetic root node ("no
  /// calls of its own"; its total is the cover of its children). \p
  /// counter_names maps counter ids to registry names
  /// (Registry::counter_names()). Call from sequential code after parallel
  /// regions have completed.
  ProfileNode fold(const std::vector<std::string>& counter_names) const;

  /// Opaque per-thread state; defined in profile.cpp only.
  struct ThreadState;

 private:
  ProfileCollector() = default;
};

/// RAII ambient frame. Pass nullptr to make the scope a no-op (the disabled
/// / empty-path case), so call sites stay branch-free.
class ProfileAmbientScope {
 public:
  explicit ProfileAmbientScope(const std::vector<const char*>* path);
  ~ProfileAmbientScope();
  ProfileAmbientScope(const ProfileAmbientScope&) = delete;
  ProfileAmbientScope& operator=(const ProfileAmbientScope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace qp::obs
