#include "core/ssqpp_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "assign/gap.hpp"
#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/evaluators.hpp"
#include "obs/obs.hpp"

namespace qp::core {

std::optional<Placement> round_filtered_ssqpp(const SsqppInstance& instance,
                                              const FractionalSsqpp& filtered,
                                              double alpha) {
  if (!(alpha > 1.0)) {
    throw std::invalid_argument("round_filtered_ssqpp: alpha > 1 required");
  }
  const int n = filtered.num_nodes;
  const int num_elements = filtered.universe_size;
  const std::vector<double>& loads = instance.element_loads();

  // GAP translation (Sec 3.3.1): machines are the sorted nodes, jobs the
  // elements; load p_{tu} = load(u) where x~_{tu} > 0, forbidden elsewhere;
  // cost c_{tu} = d_t; budget T_t = alpha * cap(v_t). The filtered solution
  // itself is a feasible fractional GAP solution, so it is rounded directly
  // (no re-solve).
  assign::GapInstance gap(num_elements, n);
  constexpr double kSupportEpsilon = 1e-9;
  for (int t = 0; t < n; ++t) {
    gap.set_capacity(
        t, alpha * instance.capacity(
                       filtered.node_order[static_cast<std::size_t>(t)]));
    for (int u = 0; u < num_elements; ++u) {
      if (filtered.xu(t, u) > kSupportEpsilon) {
        gap.set_load(t, u, loads[static_cast<std::size_t>(u)]);
        gap.set_cost(t, u,
                     filtered.sorted_distance[static_cast<std::size_t>(t)]);
      }
    }
  }
  assign::FractionalGap fractional;
  fractional.status = lp::SolveStatus::kOptimal;
  fractional.y.assign(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(num_elements),
                      0.0);
  for (int t = 0; t < n; ++t) {
    for (int u = 0; u < num_elements; ++u) {
      const double value = filtered.xu(t, u);
      if (value > kSupportEpsilon) {
        fractional.y[static_cast<std::size_t>(t) *
                         static_cast<std::size_t>(num_elements) +
                     static_cast<std::size_t>(u)] = value;
        fractional.objective +=
            value * filtered.sorted_distance[static_cast<std::size_t>(t)];
      }
    }
  }
  // Tiny support entries were dropped; renormalize each job's mass to 1 so
  // the rounding's sanity check passes.
  for (int u = 0; u < num_elements; ++u) {
    double mass = 0.0;
    for (int t = 0; t < n; ++t) {
      mass += fractional.y[static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(num_elements) +
                           static_cast<std::size_t>(u)];
    }
    if (mass <= 0.0) return std::nullopt;
    for (int t = 0; t < n; ++t) {
      fractional.y[static_cast<std::size_t>(t) *
                       static_cast<std::size_t>(num_elements) +
                   static_cast<std::size_t>(u)] /= mass;
    }
  }

  const std::optional<assign::GapAssignment> rounded =
      assign::shmoys_tardos_round(gap, fractional);
  if (!rounded) return std::nullopt;

  Placement placement(static_cast<std::size_t>(num_elements), -1);
  for (int u = 0; u < num_elements; ++u) {
    const int t = rounded->job_to_machine[static_cast<std::size_t>(u)];
    placement[static_cast<std::size_t>(u)] =
        filtered.node_order[static_cast<std::size_t>(t)];
  }
  QP_INVARIANT(
      check::validate_placement(instance, placement, {alpha + 1.0, 1e-6}).ok(),
      "Shmoys-Tardos rounding must keep load within (alpha + 1) * cap "
      "(paper Thm 3.7)");
  return placement;
}

std::optional<SsqppResult> solve_ssqpp(const SsqppInstance& instance,
                                       double alpha,
                                       const lp::SimplexOptions& options) {
  if (!(alpha > 1.0)) {
    throw std::invalid_argument("solve_ssqpp: alpha > 1 required");
  }
  QP_REQUIRE(check::validate_instance(instance).ok(),
             "SSQPP instance violates its data contracts (metric / strategy "
             "/ capacities); see check::validate_instance");
  QP_SPAN("ssqpp.solve");
  QP_COUNTER_ADD("ssqpp.solves", 1);
  FractionalSsqpp fractional = [&] {
    QP_SPAN("ssqpp.lp");
    return solve_ssqpp_lp(instance, options);
  }();
  if (fractional.status != lp::SolveStatus::kOptimal) return std::nullopt;
  std::vector<double> lp_duals = std::move(fractional.duals);
  const FractionalSsqpp filtered = [&] {
    QP_SPAN("ssqpp.filter");
    return filter_fractional(fractional, alpha);
  }();
  const std::optional<Placement> placement = [&] {
    QP_SPAN("ssqpp.round");
    return round_filtered_ssqpp(instance, filtered, alpha);
  }();
  if (!placement) return std::nullopt;
  QP_COUNTER_ADD("ssqpp.rounded", 1);

  SsqppResult result;
  result.placement = *placement;
  result.lp_objective = fractional.objective;
  result.lp_duals = std::move(lp_duals);
  result.delay = source_expected_max_delay(instance, *placement);
  result.delay_bound = alpha / (alpha - 1.0) * fractional.objective;
  result.load_violation = max_capacity_violation(
      instance.element_loads(), instance.capacities(), *placement);
  QP_INVARIANT(result.delay <= result.delay_bound + 1e-6,
               "Thm 3.7 delay bound Delta_f(v0) <= alpha/(alpha-1) * Z* "
               "violated by the rounded placement");
  QP_INVARIANT(result.load_violation <= alpha + 1.0 + 1e-6,
               "Thm 3.7 load bound load_f(v) <= (alpha + 1) * cap violated");
  return result;
}

std::optional<Placement> greedy_nearest_placement(
    const SsqppInstance& instance) {
  const std::vector<int> order =
      instance.metric().nodes_by_distance_from(instance.source());
  const std::vector<double>& loads = instance.element_loads();
  const int num_elements = instance.system().universe_size();

  // Heaviest elements first, each onto the nearest node that still fits.
  std::vector<int> elements(static_cast<std::size_t>(num_elements));
  for (int u = 0; u < num_elements; ++u) elements[static_cast<std::size_t>(u)] = u;
  std::sort(elements.begin(), elements.end(), [&](int a, int b) {
    return loads[static_cast<std::size_t>(a)] > loads[static_cast<std::size_t>(b)];
  });

  std::vector<double> remaining = instance.capacities();
  Placement placement(static_cast<std::size_t>(num_elements), -1);
  for (int u : elements) {
    bool placed = false;
    for (int node : order) {
      if (remaining[static_cast<std::size_t>(node)] + 1e-12 >=
          loads[static_cast<std::size_t>(u)]) {
        remaining[static_cast<std::size_t>(node)] -=
            loads[static_cast<std::size_t>(u)];
        placement[static_cast<std::size_t>(u)] = node;
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  QP_INVARIANT(max_capacity_violation(loads, instance.capacities(),
                                      placement) <= 1.0 + 1e-9,
               "greedy nearest placement must respect node capacities");
  return placement;
}

}  // namespace qp::core
