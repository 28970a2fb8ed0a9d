#pragma once

/// \file fault_schedule.hpp
/// Deterministic, replayable fault injection for the message-level
/// simulator (docs/SIMULATION.md).
///
/// A FaultSchedule is a plain list of timed fault windows, fixed before the
/// simulation starts -- no coin is flipped while the clock runs, so the
/// same schedule file plus the same simulation seed replays the exact same
/// run byte-for-byte (the access-log determinism contract extends to fault
/// runs unchanged). Three fault kinds:
///
///  - crash windows: node v is down during [from, until) -- probes
///    *arriving* at a crashed node are dropped (never served, never
///    answered);
///  - partitions: two node groups cannot exchange messages during
///    [from, until) -- probes *sent* while the partition is active are
///    dropped, in both directions. Relay routing does not circumvent a
///    partition: the client->node pair is what is checked;
///  - gray (slow-node) windows: probes launched toward node v during
///    [from, until) have their network delay multiplied by `factor` >= 1.
///    The node answers -- eventually -- which is exactly what makes gray
///    failures hard: only a timeout can tell "slow" from "dead".
///
/// Crashed nodes keep their *client* role: a site whose replica-hosting
/// service is down still issues accesses (and may find every quorum dead,
/// which the simulator reports as unavailability).
///
/// Schedules are written as `qplace.faults.v1` JSON documents (see
/// parse_fault_schedule) or generated pseudo-randomly from a seed for
/// churn experiments (random_fault_schedule).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace qp::sim {

/// Node `node` is down during [from, until).
struct CrashWindow {
  int node = 0;
  double from = 0.0;
  double until = 0.0;
};

/// Groups `side_a` and `side_b` cannot exchange messages during
/// [from, until). Sides must be disjoint, sorted, duplicate-free.
struct PartitionWindow {
  std::vector<int> side_a;
  std::vector<int> side_b;
  double from = 0.0;
  double until = 0.0;
};

/// Probes launched toward `node` during [from, until) are slowed by
/// `factor` (>= 1). Overlapping gray windows multiply.
struct GrayWindow {
  int node = 0;
  double from = 0.0;
  double until = 0.0;
  double factor = 1.0;
};

class FaultSchedule {
 public:
  /// The empty schedule: no faults, every query returns the failure-free
  /// answer.
  FaultSchedule() = default;

  /// \throws std::invalid_argument on a malformed window: negative node
  /// ids, until < from, factor < 1, or unsorted/overlapping partition
  /// sides.
  FaultSchedule(std::vector<CrashWindow> crashes,
                std::vector<PartitionWindow> partitions,
                std::vector<GrayWindow> gray);

  bool empty() const {
    return crashes_.empty() && partitions_.empty() && gray_.empty();
  }
  /// Largest node id referenced by any window; -1 for the empty schedule.
  /// Callers validate it against their node count.
  int max_node() const { return max_node_; }

  /// Node down at time t? O(log W + the node's crash windows).
  bool crashed(int node, double t) const;
  /// Nodes a and b unable to exchange messages at time t (symmetric)?
  bool partitioned(int a, int b, double t) const;
  /// Product of the factors of the gray windows covering (node, t), taken
  /// in schedule order; 1 when none does. O(log W + the node's gray
  /// windows).
  double gray_factor(int node, double t) const;
  /// Does any fault window (of any kind) overlap [from, until]? O(log W).
  bool any_active(double from, double until) const;

  /// The failure set seen by `client` at time t: element u is failed iff
  /// the node hosting it is crashed or partitioned away from the client.
  /// Feed the result to quorum::check_liveness for the live quorums.
  /// \throws std::invalid_argument on placement nodes outside [0, inf) --
  /// full placement validation is the simulator's job.
  std::vector<bool> failed_elements(const core::Placement& placement,
                                    int client, double t) const;
  /// The same failure set written into `failed` (resized to the
  /// placement), so a caller that asks often can reuse one buffer.
  void failed_elements(const core::Placement& placement, int client,
                       double t, std::vector<bool>& failed) const;

  /// The windows in schedule order, as constructed (and as rendered).
  const std::vector<CrashWindow>& crashes() const { return crashes_; }
  const std::vector<PartitionWindow>& partitions() const {
    return partitions_;
  }
  const std::vector<GrayWindow>& gray() const { return gray_; }

 private:
  std::vector<CrashWindow> crashes_;
  std::vector<PartitionWindow> partitions_;
  std::vector<GrayWindow> gray_;
  int max_node_ = -1;

  // Query indexes, built once by the constructor. The crash and gray
  // windows stably sorted by node: one node's windows form a run, still in
  // schedule order, found by binary search (no table indexed by node id, so
  // a schedule naming node 2^31 - 1 costs no more than one naming node 0).
  std::vector<CrashWindow> crashes_by_node_;
  std::vector<GrayWindow> gray_by_node_;
  // The `from` of every window of every kind in ascending order, and the
  // largest `until` among the windows up to each position.
  std::vector<double> window_from_;
  std::vector<double> until_prefix_max_;
};

/// Parses a `qplace.faults.v1` JSON document:
///
///   {"schema": "qplace.faults.v1",
///    "crashes":    [{"node": 3, "from": 10, "until": 40}, ...],
///    "partitions": [{"a": [0, 1], "b": [4, 5], "from": 20, "until": 60}],
///    "gray":       [{"node": 2, "from": 0, "until": 90, "factor": 4}]}
///
/// All three arrays are optional; extra members are rejected nowhere (the
/// strict JSON reader already rejects malformed syntax).
/// \throws std::runtime_error on malformed JSON, a missing/foreign schema
/// tag, or a node id that is not an integer in [0, INT_MAX];
/// std::invalid_argument on invalid windows.
FaultSchedule parse_fault_schedule(const std::string& text);

/// Stream variant of parse_fault_schedule (reads the stream to its end).
FaultSchedule load_fault_schedule(std::istream& in);

/// Canonical single-line `qplace.faults.v1` rendering (doubles in %.17g,
/// the repo-wide byte-stable format); parse(render(s)) round-trips.
std::string render_fault_schedule(const FaultSchedule& schedule);

/// FNV-1a (64-bit, hex) over the canonical rendering. Stamped into the
/// access-log / run-report context as "fault_digest" so `qplace analyze`
/// can refuse to cross-check a log against the wrong schedule.
std::string fault_schedule_digest(const FaultSchedule& schedule);

/// Knobs of the seedable churn generator below. Rates are expected window
/// counts per node over the whole horizon (Poisson); durations are means
/// of exponential draws, truncated to the horizon.
struct RandomFaultOptions {
  double crash_rate = 0.0;
  double mean_downtime = 50.0;
  double partition_rate = 0.0;  ///< expected partitions over the horizon
  double mean_partition_duration = 50.0;
  double gray_rate = 0.0;
  double mean_gray_duration = 50.0;
  double gray_factor = 4.0;  ///< slowdown of every generated gray window
};

/// Generates a pseudo-random schedule over [0, duration) for `num_nodes`
/// nodes. Deterministic in (num_nodes, duration, options, seed) -- the E16
/// churn experiment sweeps `options` at a fixed seed. Partitions split a
/// random non-trivial prefix/suffix of a seeded node shuffle.
/// \throws std::invalid_argument on num_nodes <= 0, duration <= 0,
/// negative rates/means, or gray_factor < 1.
FaultSchedule random_fault_schedule(int num_nodes, double duration,
                                    const RandomFaultOptions& options,
                                    std::uint64_t seed);

}  // namespace qp::sim
