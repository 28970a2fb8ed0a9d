#include "check/certificate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/evaluators.hpp"

namespace qp::check {

namespace {

std::string num(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", x);
  return buffer;
}

double beta_of(double alpha) { return alpha / (alpha - 1.0); }

/// value <= bound within absolute-or-relative tolerance.
bool within(double value, double bound, double tolerance) {
  return value <= bound + tolerance * std::max(1.0, std::abs(bound));
}

/// Weighted average client distance to a node: Avg_v d(v, v0).
double average_distance_to(const core::QppInstance& instance, int v0) {
  double average = 0.0;
  for (int v = 0; v < instance.num_nodes(); ++v) {
    average += instance.client_weights()[static_cast<std::size_t>(v)] *
               instance.metric()(v, v0);
  }
  return average;
}

void set_ratio(Certificate& cert, double value, double lower_bound) {
  cert.opt_lower_bound = lower_bound;
  cert.certified_ratio = lower_bound > 0.0 ? value / lower_bound : 0.0;
}

/// Placement sanity shared by all certificates; returns false (and records
/// the failure) when the remaining checks cannot run.
bool placement_usable(Certificate& cert, const core::Placement& placement,
                      int universe_size, int num_nodes) {
  const bool valid =
      core::is_valid_placement(placement, universe_size, num_nodes);
  cert.add("placement/valid", valid ? 0.0 : 1.0, 0.0, 0.0);
  return valid;
}

}  // namespace

void Certificate::add(std::string name, double value, double bound,
                      double tolerance) {
  checks.push_back({std::move(name), value, bound,
                    within(value, bound, tolerance)});
}

bool Certificate::ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const BoundCheck& c) { return c.holds; });
}

std::string Certificate::to_string() const {
  std::string out;
  for (const BoundCheck& c : checks) {
    out += (c.holds ? "  ok   " : "  FAIL ") + c.name + ": " + num(c.value) +
           " <= " + num(c.bound) + "\n";
  }
  if (opt_lower_bound > 0.0) {
    out += "  certified OPT lower bound " + num(opt_lower_bound) +
           ", ratio " + num(certified_ratio) + "\n";
  }
  return out;
}

Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::SsqppResult& result,
                              const CertificateOptions& options) {
  QP_REQUIRE(options.alpha > 1.0, "certificate needs alpha > 1");
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double beta = beta_of(options.alpha);

  // Re-derive the LP lower bound Z* (paper eq. (9)) from scratch.
  const core::FractionalSsqpp lp =
      core::solve_ssqpp_lp(instance, options.simplex);
  cert.add("lp/re-derivable",
           lp.status == lp::SolveStatus::kOptimal ? 0.0 : 1.0, 0.0, 0.0);
  if (lp.status != lp::SolveStatus::kOptimal) return cert;
  const ValidationReport lp_report = validate_lp_solution(instance, lp);
  cert.add("lp/primal-feasible",
           static_cast<double>(lp_report.issues.size()), 0.0, 0.0);

  const double delay =
      core::source_expected_max_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);

  cert.add("consistency/delay", std::abs(delay - result.delay), 0.0, tol);
  cert.add("consistency/lp-objective",
           std::abs(lp.objective - result.lp_objective), 0.0, tol);
  cert.add("consistency/load-violation",
           std::abs(violation - result.load_violation), 0.0, tol);

  // Thm 3.7: Delta_f(v0) <= beta * Z*, load <= (alpha + 1) cap.
  cert.add("thm3.7/delay", delay, beta * lp.objective, tol);
  cert.add("thm3.7/load", violation, options.alpha + 1.0, tol);

  // Z* lower-bounds the *capacity-respecting* OPT; the rounded placement may
  // use up to (alpha + 1) cap, so its delay can legitimately undercut Z* and
  // the certified ratio can fall below 1.
  set_ratio(cert, delay, lp.objective);
  return cert;
}

Certificate check_certificate(const core::QppInstance& instance,
                              const core::QppResult& result,
                              const CertificateOptions& options) {
  QP_REQUIRE(options.alpha > 1.0, "certificate needs alpha > 1");
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double beta = beta_of(options.alpha);

  const double average =
      core::average_max_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);
  cert.add("consistency/delay", std::abs(average - result.average_delay), 0.0,
           tol);
  cert.add("consistency/load-violation",
           std::abs(violation - result.load_violation), 0.0, tol);
  cert.add("thm1.2/load", violation, options.alpha + 1.0, tol);

  const bool source_valid =
      result.chosen_source >= 0 && result.chosen_source < instance.num_nodes();
  cert.add("result/source-valid", source_valid ? 0.0 : 1.0, 0.0, 0.0);
  if (!source_valid) return cert;

  // Thm 3.7 at the chosen relay: Delta_f(v0) <= beta * Z*(v0).
  const core::SsqppInstance chosen_view =
      core::single_source_view(instance, result.chosen_source);
  const core::FractionalSsqpp chosen_lp =
      core::solve_ssqpp_lp(chosen_view, options.simplex);
  cert.add("lp/re-derivable",
           chosen_lp.status == lp::SolveStatus::kOptimal ? 0.0 : 1.0, 0.0,
           0.0);
  if (chosen_lp.status != lp::SolveStatus::kOptimal) return cert;
  const double source_delay =
      core::source_expected_max_delay(chosen_view, result.placement);
  cert.add("thm3.7@v0/delay", source_delay, beta * chosen_lp.objective, tol);

  // Relay inequality (paper eq. (4)/(8)): the average delay is at most the
  // via-v0 delay; holds for any placement by the triangle inequality.
  cert.add("lemma3.1/relay", average,
           average_distance_to(instance, result.chosen_source) + source_delay,
           tol);

  if (options.derive_opt_lower_bound) {
    // L = min_v0 [Avg_v d(v, v0) + Z*(v0)] over ALL nodes; by Lemma 3.1 and
    // Z*(v0) <= Delta_{f*}(v0), L <= 5 OPT. One LP per node.
    // Only a proven-infeasible LP (OPT_ssqpp(v0) = inf) may be skipped; any
    // other unsolved LP leaves the min over v0 unproven.
    double relay_bound = std::numeric_limits<double>::infinity();
    bool every_node_solved = true;
    for (int v0 = 0; v0 < instance.num_nodes(); ++v0) {
      core::FractionalSsqpp lp =
          v0 == result.chosen_source
              ? chosen_lp
              : core::solve_ssqpp_lp(core::single_source_view(instance, v0),
                                     options.simplex);
      if (lp.status == lp::SolveStatus::kInfeasible) continue;
      if (lp.status != lp::SolveStatus::kOptimal) {
        every_node_solved = false;
        break;
      }
      relay_bound = std::min(relay_bound,
                             average_distance_to(instance, v0) + lp.objective);
    }
    const bool bound_exists = every_node_solved && std::isfinite(relay_bound);
    cert.add("thm1.2/lower-bound-exists", bound_exists ? 0.0 : 1.0, 0.0, 0.0);
    if (bound_exists) {
      // Thm 1.2: achieved average delay <= 5 beta * (L / 5) = beta * L.
      cert.add("thm1.2/delay", average, beta * relay_bound, tol);
      set_ratio(cert, average, relay_bound / 5.0);
    }
  }
  return cert;
}

Certificate check_certificate(const core::QppInstance& instance,
                              const core::TotalDelayResult& result,
                              const CertificateOptions& options) {
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double average =
      core::average_total_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);

  cert.add("consistency/delay", std::abs(average - result.average_delay), 0.0,
           tol);
  cert.add("consistency/load-violation",
           std::abs(violation - result.load_violation), 0.0, tol);

  // Re-derive the GAP LP optimum; the solve is deterministic.
  const std::optional<core::TotalDelayResult> rederived =
      core::solve_total_delay(instance);
  cert.add("lp/re-derivable", rederived ? 0.0 : 1.0, 0.0, 0.0);
  if (!rederived) return cert;
  cert.add("consistency/lp-objective",
           std::abs(rederived->lp_objective - result.lp_objective), 0.0, tol);

  // Thm 5.1: cost <= LP optimum <= OPT, load <= 2 cap.
  cert.add("thm5.1/delay", average, rederived->lp_objective, tol);
  cert.add("thm5.1/load", violation, 2.0, tol);
  set_ratio(cert, average, rederived->lp_objective);
  return cert;
}

Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::MajorityLayoutResult& result, int t,
                              const CertificateOptions& options) {
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double delay =
      core::source_expected_max_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);

  cert.add("consistency/delay", std::abs(delay - result.delay), 0.0, tol);
  // Eq. (19): the measured delay equals the closed form on the placed slot
  // distances (placement-invariance of Sec 4.2).
  std::vector<double> slot_distances;
  slot_distances.reserve(result.placement.size());
  for (int node : result.placement) {
    slot_distances.push_back(instance.metric()(instance.source(), node));
  }
  const double formula =
      core::majority_delay_formula(std::move(slot_distances), t);
  cert.add("eq19/formula-matches", std::abs(delay - formula), 0.0, tol);
  cert.add("consistency/formula", std::abs(formula - result.formula_delay),
           0.0, tol);
  // Thm 1.3: the specialized layouts respect capacities exactly.
  cert.add("thm1.3/load", violation, 1.0, tol);
  return cert;
}

}  // namespace qp::check
