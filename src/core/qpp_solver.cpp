#include "core/qpp_solver.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/evaluators.hpp"

namespace qp::core {

SsqppInstance single_source_view(const QppInstance& instance, int source) {
  return SsqppInstance(instance.shared_metric(), instance.capacities(),
                       instance.system(), instance.strategy(), source);
}

std::vector<int> relay_candidates(const QppInstance& instance,
                                  const QppSolveOptions& options) {
  if (!options.candidate_sources.empty()) return options.candidate_sources;
  std::vector<int> candidates(static_cast<std::size_t>(instance.num_nodes()));
  std::iota(candidates.begin(), candidates.end(), 0);
  if (options.max_candidates <= 0 ||
      options.max_candidates >= instance.num_nodes()) {
    return candidates;
  }
  std::vector<double> distance_sum;
  for (int v : candidates) {
    distance_sum.push_back(instance.metric().distance_sum_from(v));
  }
  std::ranges::stable_sort(candidates, {}, [&](int v) {
    return distance_sum[static_cast<std::size_t>(v)];
  });
  candidates.resize(static_cast<std::size_t>(options.max_candidates));
  return candidates;
}

std::optional<QppResult> solve_qpp(const QppInstance& instance,
                                   const QppSolveOptions& options) {
  auto sweep = ssqpp_relay_sweep(
      instance, options, [&](const SsqppResult& single) {
        return average_max_delay(instance, single.placement);
      });
  if (!sweep.winner) return std::nullopt;
  const auto& won = sweep.feasible[*sweep.winner];
  QP_INVARIANT(check::validate_placement(instance, won.solution.placement,
                                         {options.alpha + 1.0, 1e-6})
                   .ok(),
               "Thm 1.2 load bound load_f(v) <= (alpha + 1) * cap violated");
  std::vector<RelayLp> relay_lps;
  relay_lps.reserve(sweep.feasible.size());
  for (auto& outcome : sweep.feasible) {
    relay_lps.push_back({outcome.source, outcome.solution.lp_objective,
                         std::move(outcome.solution.lp_duals)});
  }
  return QppResult{
      .placement = won.solution.placement,
      .chosen_source = won.source,
      .average_delay = won.objective,
      .load_violation =
          max_capacity_violation(instance.element_loads(),
                                 instance.capacities(), won.solution.placement),
      .best_lp_bound = std::accumulate(
          sweep.feasible.begin(), sweep.feasible.end(), 0.0,
          [](double bound, const auto& outcome) {
            return std::max(bound, outcome.solution.lp_objective);
          }),
      .relay_lps = std::move(relay_lps)};
}

}  // namespace qp::core
