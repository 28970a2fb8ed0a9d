#pragma once

/// \file validate.hpp
/// Typed validators for the paper's data contracts. Each validator returns a
/// ValidationReport listing every violated invariant (empty report = valid)
/// rather than throwing on the first problem, so callers can log or assert
/// on the full picture. The contract macros (contracts.hpp) are the
/// fail-fast companion; these validators are the exhaustive, always-compiled
/// diagnosis tools used by `qplace check`, tests, and solver entry points.
///
/// Invariant catalogue (see docs/CONTRACTS.md for the paper mapping):
///  - metric:    triangle inequality (exhaustive for small n, sampled above
///               MetricCheckOptions::exhaustive_triangle_limit); the Metric
///               constructor throws on the other axioms;
///  - instance:  capacities finite and >= 0, strategy a probability
///               distribution over the quorums, quorums nonempty subsets of
///               U, client weights normalized, element loads consistent
///               with (system, strategy) per paper Sec 1.2;
///  - placement: range f : U -> V, load accounting
///               load_f(v) = sum_{f(u)=v} load(u) <= factor * cap(v);
///  - LP:        primal feasibility of LP (9)-(14) and objective
///               consistency objective = sum_Q p(Q) sum_t d_t x_tQ.

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/ssqpp_lp.hpp"

namespace qp::check {

/// One violated invariant.
struct ValidationIssue {
  std::string code;    ///< stable id, e.g. "metric/asymmetric"
  std::string detail;  ///< human-readable specifics with offending indices
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;

  bool ok() const { return issues.empty(); }
  /// One issue per line: "code: detail". Empty string when ok().
  std::string to_string() const;
  void add(std::string code, std::string detail);
  void merge(const ValidationReport& other);
};

struct MetricCheckOptions {
  double tolerance = 1e-9;
  /// Up to this many points the triangle inequality is checked on all
  /// O(n^3) triples; above it, `triangle_samples` random triples are
  /// checked instead (deterministic given `seed`).
  int exhaustive_triangle_limit = 128;
  int triangle_samples = 20000;
  std::uint64_t seed = 7;
};

/// The triangle inequality (paper Sec 1.2 assumes a metric). Every Metric
/// constructor already throws on a non-finite or negative entry, a nonzero
/// diagonal and asymmetry, so those need no check here.
ValidationReport validate_metric(const graph::Metric& metric,
                                 const MetricCheckOptions& options = {});

/// Raw access-strategy data against a system: one probability per quorum,
/// all non-negative and finite, summing to 1 within 1e-9 (paper Sec 1:
/// p : Q -> [0, 1] is a distribution). AccessStrategy's constructor
/// enforces this; the validator covers strategies arriving as raw data
/// (files, wire formats) before construction.
ValidationReport validate_strategy(const quorum::QuorumSystem& system,
                                   const std::vector<double>& probabilities);

/// Full QPP instance: metric, capacities, system/strategy coupling, client
/// weights and cached element loads.
ValidationReport validate_instance(const core::QppInstance& instance,
                                   const MetricCheckOptions& options = {});

/// Single-source instance: as above plus source in range.
ValidationReport validate_instance(const core::SsqppInstance& instance,
                                   const MetricCheckOptions& options = {});

/// validate_instance without the metric: what a single_source_view adds to
/// the QppInstance whose metric it shares (capacities, system, strategy and
/// cached loads sized for that metric, and the source in range). O(n) plus
/// the quorums' size, so the relay sweep checks every relay with it after
/// validating the shared metric once.
ValidationReport validate_view(const core::SsqppInstance& instance);

struct PlacementCheckOptions {
  /// Allowed load_f(v) / cap(v). 1.0 demands capacity-respecting; the
  /// Thm 1.2 / 3.7 outputs are certified for factor alpha + 1.
  double max_load_factor = 1.0;
  double tolerance = 1e-9;
};

/// Range + load accounting of a placement against a QPP instance.
ValidationReport validate_placement(const core::QppInstance& instance,
                                    const core::Placement& placement,
                                    const PlacementCheckOptions& options = {});

/// Range + load accounting of a placement against a SSQPP instance.
ValidationReport validate_placement(const core::SsqppInstance& instance,
                                    const core::Placement& placement,
                                    const PlacementCheckOptions& options = {});

struct LpCheckOptions {
  double tolerance = 1e-7;
  /// Capacity rows are checked against load_scale * cap(v_t): 1.0 for raw
  /// LP solutions, alpha for alpha-filtered solutions (Sec 3.3.1 lets the
  /// filtered mass use alpha times the capacity).
  double load_scale = 1.0;
  /// Filtered solutions redistribute quorum mass, so their objective need
  /// not match sum_Q p(Q) D_Q of the *original* LP optimum; disable the
  /// objective consistency row when checking intermediate solutions whose
  /// recorded objective is stale.
  bool check_objective = true;
};

/// Primal feasibility of a FractionalSsqpp against LP (9)-(14): column
/// stochasticity (10)/(11), capacities (12)-(13), prefix dominance (14),
/// non-negativity, node ordering, and objective consistency (9).
ValidationReport validate_lp_solution(const core::SsqppInstance& instance,
                                      const core::FractionalSsqpp& solution,
                                      const LpCheckOptions& options = {});

}  // namespace qp::check
