#include "core/total_delay.hpp"

#include <utility>

#include "assign/gap.hpp"
#include "core/evaluators.hpp"

namespace qp::core {

assign::GapInstance total_delay_gap(const QppInstance& instance) {
  const int n = instance.num_nodes();
  const int num_elements = instance.system().universe_size();
  const std::vector<double>& loads = instance.element_loads();

  // Weighted average distance from all clients to each node v.
  std::vector<double> average_distance(static_cast<std::size_t>(n), 0.0);
  for (int v = 0; v < n; ++v) {
    double total = 0.0;
    for (int client = 0; client < n; ++client) {
      total += instance.client_weights()[static_cast<std::size_t>(client)] *
               instance.metric()(client, v);
    }
    average_distance[static_cast<std::size_t>(v)] = total;
  }

  assign::GapInstance gap(num_elements, n);
  for (int v = 0; v < n; ++v) {
    gap.set_capacity(v, instance.capacity(v));
    for (int u = 0; u < num_elements; ++u) {
      // Contribution of placing u on v to Avg_v' Gamma(v') (paper Sec 5).
      gap.set_cost(v, u,
                   loads[static_cast<std::size_t>(u)] *
                       average_distance[static_cast<std::size_t>(v)]);
      gap.set_load(v, u, loads[static_cast<std::size_t>(u)]);
    }
  }
  return gap;
}

std::optional<TotalDelayResult> solve_total_delay(const QppInstance& instance) {
  const int num_elements = instance.system().universe_size();
  const assign::GapInstance gap = total_delay_gap(instance);
  assign::FractionalGap fractional = assign::solve_gap_lp(gap);
  const std::optional<assign::GapAssignment> rounded =
      assign::shmoys_tardos_round(gap, fractional);
  if (!rounded) return std::nullopt;

  TotalDelayResult result;
  result.placement.resize(static_cast<std::size_t>(num_elements));
  for (int u = 0; u < num_elements; ++u) {
    result.placement[static_cast<std::size_t>(u)] =
        rounded->job_to_machine[static_cast<std::size_t>(u)];
  }
  result.lp_objective = fractional.objective;
  result.lp_duals = std::move(fractional.duals);
  result.average_delay = average_total_delay(instance, result.placement);
  result.load_violation = max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);
  return result;
}

}  // namespace qp::core
