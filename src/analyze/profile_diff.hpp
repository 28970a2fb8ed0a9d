#pragma once

/// \file profile_diff.hpp
/// Structured diff of two `qplace.profile.v1` documents (obs/profile.hpp).
///
/// The comparison mirrors analyze.hpp's run-report diff split:
///
///  - The **deterministic** half -- per-node counter attribution -- is
///    compared with analyze.hpp's compare_counters(), node by node. Any node
///    path present on only one side, a one-sided non-zero counter, or a
///    counter whose value drifts beyond the tolerance gates the diff (CLI
///    exit 1). Under the docs/PARALLEL.md contract two profiles of the same
///    instance at any thread counts must show zero drift.
///  - The **nondeterministic** half -- per-node wall time -- is reported
///    for information only, never gated (like TimerDiff).
///
/// Profiles whose embedded `instance_digest` context values disagree are
/// refused by the same digest_mismatch() policy as run reports.

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "obs/json.hpp"

namespace qp::obs {

/// A node path present in only one profile's deterministic tree --
/// structural drift, gated like an infinite counter drift.
struct ProfileStructureDiff {
  std::string path;
  bool in_base = false;
  bool in_cand = false;
};

/// Wall-class comparison of one node present in both profiles;
/// informational only.
struct ProfileWallDiff {
  std::string path;
  double calls_base = 0.0, calls_cand = 0.0;
  double total_ms_base = 0.0, total_ms_cand = 0.0;
};

struct ProfileDiff {
  /// Non-empty when the documents are not comparable (schema mismatch,
  /// disagreeing instance digests, a malformed counter value); every other
  /// field is then unset.
  std::string error;

  std::vector<ProfileStructureDiff> structure;  // deterministic -- gated
  std::vector<CounterDiff> counters;            // deterministic -- gated
  std::vector<ProfileWallDiff> walls;           // nondeterministic

  /// Largest relative counter drift; +infinity on any structural drift or
  /// one-sided counter.
  double max_deterministic_drift() const;
  bool deterministic_ok(double tolerance) const {
    return error.empty() && max_deterministic_drift() <= tolerance;
  }
};

/// Diffs two parsed `qplace.profile.v1` documents.
ProfileDiff diff_profiles(const json::Value& base, const json::Value& cand);

}  // namespace qp::obs
