#include "check/certificate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "assign/gap.hpp"
#include "check/contracts.hpp"
#include "core/evaluators.hpp"
#include "core/ssqpp_lp.hpp"
#include "lp/model.hpp"

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

/// Records the derived lower bounds on OPT; the largest (the first on ties)
/// becomes opt_lower_bound and divides the achieved objective \p value.
void set_ratio(Certificate& cert, double value,
               std::vector<LowerBound> lower_bounds) {
  cert.lower_bounds = std::move(lower_bounds);
  const auto best = std::ranges::max_element(cert.lower_bounds, std::less{},
                                             &LowerBound::value);
  cert.opt_lower_bound = best->value;
  cert.certified_ratio =
      cert.opt_lower_bound > 0.0 ? value / cert.opt_lower_bound : 0.0;
}

/// A lower bound on an LP optimum, or the status that left none.
struct LpBound {
  lp::SolveStatus status = lp::SolveStatus::kOptimal;
  double value = 0.0;  ///< lp::dual_bound on the checker's model
};

/// The one rule behind every LP bound below. The duals y come from the
/// result when it supplies one finite entry per row of \p model, else from
/// the checker's own solve; either way the bound is lp::dual_bound on the
/// model the checker built, so a wrong y can only weaken it. A solve that
/// ends in any status but kOptimal yields no bound.
LpBound lp_bound(const lp::Model& model, const std::vector<double>* supplied,
                 const lp::SimplexOptions& options) {
  if (supplied != nullptr &&
      supplied->size() == static_cast<std::size_t>(model.num_constraints()) &&
      std::ranges::all_of(*supplied,
                          [](double y) { return std::isfinite(y); })) {
    return {lp::SolveStatus::kOptimal, lp::dual_bound(model, *supplied)};
  }
  const lp::Solution own = lp::solve(model, options);
  if (own.status != lp::SolveStatus::kOptimal) return {own.status, 0.0};
  return {lp::SolveStatus::kOptimal, lp::dual_bound(model, own.duals)};
}

/// lp_bound for LP (9)-(14) of a single-source instance: Z* >= value.
LpBound ssqpp_bound(const core::SsqppInstance& instance,
                    const std::vector<double>* supplied,
                    const lp::SimplexOptions& options) {
  const core::SsqppLp lp = core::build_ssqpp_lp(instance);
  if (!lp.element_fits) return {lp::SolveStatus::kInfeasible, 0.0};
  return lp_bound(lp.model, supplied, options);
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
    // The winning bound's name, then the bounds it beat.
    const auto best = std::ranges::max_element(lower_bounds, std::less{},
                                               &LowerBound::value);
    std::string names = best->name;
    for (auto bound = lower_bounds.begin(); bound != lower_bounds.end();
         ++bound) {
      if (bound != best) names += "; " + bound->name + " = " + num(bound->value);
    }
    out += "  certified OPT lower bound " + num(opt_lower_bound) + " (" +
           names + "), ratio " + num(certified_ratio) + "\n";
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

  // A lower bound on Z* (paper eq. (9)) on the checker's own LP model.
  const LpBound lp = ssqpp_bound(instance, &result.lp_duals, options.simplex);
  cert.add("lp/re-derivable",
           lp.status == lp::SolveStatus::kOptimal ? 0.0 : 1.0, 0.0, 0.0);
  if (lp.status != lp::SolveStatus::kOptimal) return cert;

  const double delay =
      core::source_expected_max_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);

  cert.add("consistency/delay", std::abs(delay - result.delay), 0.0, tol);
  cert.add("consistency/lp-objective",
           std::abs(lp.value - result.lp_objective), 0.0, tol);
  cert.add("consistency/load-violation",
           std::abs(violation - result.load_violation), 0.0, tol);

  // Thm 3.7: Delta_f(v0) <= beta * Z*, load <= (alpha + 1) cap.
  cert.add("thm3.7/delay", delay, beta * lp.value, tol);
  cert.add("thm3.7/load", violation, options.alpha + 1.0, tol);

  // Z* lower-bounds the *capacity-respecting* OPT; the rounded placement may
  // use up to (alpha + 1) cap, so its delay can legitimately undercut Z* and
  // the certified ratio can fall below 1.
  set_ratio(cert, delay, {{"Z*", lp.value}});
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

  // Node v0's bound on Z*(v0), derived once, from the duals of the result's
  // record for relay v0 when it has one.
  const int n = instance.num_nodes();
  const auto valid_node = [n](int v) { return v >= 0 && v < n; };
  std::vector<const std::vector<double>*> supplied(
      static_cast<std::size_t>(n), nullptr);
  for (const core::RelayLp& record : result.relay_lps) {
    if (valid_node(record.source)) {
      supplied[static_cast<std::size_t>(record.source)] = &record.duals;
    }
  }
  std::vector<std::optional<LpBound>> bounds(static_cast<std::size_t>(n));
  const auto node_bound = [&](int v0) -> const LpBound& {
    std::optional<LpBound>& bound = bounds[static_cast<std::size_t>(v0)];
    if (!bound) {
      bound = ssqpp_bound(core::single_source_view(instance, v0),
                          supplied[static_cast<std::size_t>(v0)],
                          options.simplex);
    }
    return *bound;
  };

  // Each record's Z*(v0), and best_lp_bound (their max), must match the
  // bounds derived here.
  double record_error = 0.0;
  double best_bound = 0.0;
  for (const core::RelayLp& record : result.relay_lps) {
    if (!valid_node(record.source) ||
        node_bound(record.source).status != lp::SolveStatus::kOptimal) {
      record_error = std::numeric_limits<double>::infinity();
      continue;
    }
    const LpBound& bound = node_bound(record.source);
    record_error =
        std::max(record_error, std::abs(record.objective - bound.value));
    best_bound = std::max(best_bound, bound.value);
  }
  cert.add("consistency/relay-lp-objective", record_error, 0.0, tol);
  cert.add("consistency/best-lp-bound",
           std::abs(result.best_lp_bound - best_bound), 0.0, tol);
  cert.add("thm1.2/load", violation, options.alpha + 1.0, tol);

  const bool source_valid = valid_node(result.chosen_source);
  cert.add("result/source-valid", source_valid ? 0.0 : 1.0, 0.0, 0.0);
  if (!source_valid) return cert;

  // Thm 3.7 at the chosen relay: Delta_f(v0) <= beta * Z*(v0).
  const LpBound& chosen_lp = node_bound(result.chosen_source);
  cert.add("lp/re-derivable",
           chosen_lp.status == lp::SolveStatus::kOptimal ? 0.0 : 1.0, 0.0,
           0.0);
  if (chosen_lp.status != lp::SolveStatus::kOptimal) return cert;
  const double source_delay = core::source_expected_max_delay(
      core::single_source_view(instance, result.chosen_source),
      result.placement);
  cert.add("thm3.7@v0/delay", source_delay, beta * chosen_lp.value, tol);

  // Relay inequality (paper eq. (4)/(8)): the average delay is at most the
  // via-v0 delay; holds for any placement by the triangle inequality.
  cert.add("lemma3.1/relay", average,
           average_distance_to(instance, result.chosen_source) + source_delay,
           tol);

  if (options.derive_opt_lower_bound) {
    // With D(v0) <= Z*(v0) <= OPT_ssqpp(v0) <= Delta_{f*}(v0) for OPT's
    // capacity-respecting placement f*, two bounds follow:
    //  - L = min_v0 [Avg_v d(v, v0) + D(v0)] <= 5 OPT (Lemma 3.1), and
    //  - direct: sum_v w_v D(v) <= sum_v w_v Delta_{f*}(v) = OPT.
    // Only a proven-infeasible LP (OPT_ssqpp(v0) = inf) may be left out of
    // L; any other unsolved LP leaves the min over v0 unproven.
    double relay_bound = std::numeric_limits<double>::infinity();
    double direct_bound = 0.0;
    bool every_node_solved = true;
    bool every_node_bounded = true;
    for (int v0 = 0; v0 < n; ++v0) {
      const LpBound& bound = node_bound(v0);
      if (bound.status == lp::SolveStatus::kInfeasible) {
        every_node_bounded = false;
        continue;
      }
      if (bound.status != lp::SolveStatus::kOptimal) {
        every_node_solved = false;
        break;
      }
      relay_bound = std::min(relay_bound,
                             average_distance_to(instance, v0) + bound.value);
      direct_bound +=
          instance.client_weights()[static_cast<std::size_t>(v0)] *
          bound.value;
    }
    const bool bound_exists = every_node_solved && std::isfinite(relay_bound);
    cert.add("thm1.2/lower-bound-exists", bound_exists ? 0.0 : 1.0, 0.0, 0.0);
    if (bound_exists) {
      // Thm 1.2: achieved average delay <= 5 beta * (L / 5) = beta * L.
      cert.add("thm1.2/delay", average, beta * relay_bound, tol);
      std::vector<LowerBound> lower_bounds = {{"L/5", relay_bound / 5.0}};
      if (every_node_bounded) lower_bounds.push_back({"direct", direct_bound});
      set_ratio(cert, average, std::move(lower_bounds));
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

  // A lower bound on the GAP LP optimum G on the checker's own model.
  const assign::GapLp gap_lp =
      assign::build_gap_lp(core::total_delay_gap(instance));
  const LpBound lp = lp_bound(gap_lp.model, &result.lp_duals, options.simplex);
  cert.add("lp/re-derivable",
           lp.status == lp::SolveStatus::kOptimal ? 0.0 : 1.0, 0.0, 0.0);
  if (lp.status != lp::SolveStatus::kOptimal) return cert;
  cert.add("consistency/lp-objective",
           std::abs(lp.value - result.lp_objective), 0.0, tol);

  // Thm 5.1: cost <= LP optimum <= OPT, load <= 2 cap.
  cert.add("thm5.1/delay", average, lp.value, tol);
  cert.add("thm5.1/load", violation, 2.0, tol);
  set_ratio(cert, average, {{"G", lp.value}});
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
