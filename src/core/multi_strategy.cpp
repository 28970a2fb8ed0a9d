#include "core/multi_strategy.hpp"

#include <limits>
#include <stdexcept>

#include "core/evaluators.hpp"

namespace qp::core {

namespace {

void check_arity(const graph::Metric& metric,
                 const quorum::QuorumSystem& system,
                 const PerClientStrategies& strategies) {
  if (static_cast<int>(strategies.size()) != metric.num_points()) {
    throw std::invalid_argument(
        "multi-strategy: one strategy per client required");
  }
  for (const quorum::AccessStrategy& p : strategies) {
    if (p.num_quorums() != system.num_quorums()) {
      throw std::invalid_argument("multi-strategy: strategy/system mismatch");
    }
  }
}

std::vector<double> normalized(std::vector<double> weights, int n) {
  if (static_cast<int>(weights.size()) != n) {
    throw std::invalid_argument("multi-strategy: one weight per client");
  }
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0)) {
      throw std::invalid_argument("multi-strategy: weights must be >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("multi-strategy: weights must not all be 0");
  }
  for (double& w : weights) w /= total;
  return weights;
}

}  // namespace

double average_max_delay_multi(const graph::Metric& metric,
                               const quorum::QuorumSystem& system,
                               const PerClientStrategies& strategies,
                               const std::vector<double>& client_weights,
                               const Placement& placement) {
  check_arity(metric, system, strategies);
  const std::vector<double> weights =
      normalized(client_weights, metric.num_points());
  double total = 0.0;
  for (int v = 0; v < metric.num_points(); ++v) {
    if (weights[static_cast<std::size_t>(v)] == 0.0) continue;
    total += weights[static_cast<std::size_t>(v)] *
             expected_max_delay(metric, system,
                                strategies[static_cast<std::size_t>(v)],
                                placement, v);
  }
  return total;
}

int best_relay_node_multi(const graph::Metric& metric,
                          const quorum::QuorumSystem& system,
                          const PerClientStrategies& strategies,
                          const Placement& placement) {
  check_arity(metric, system, strategies);
  int best = 0;
  double best_delay = std::numeric_limits<double>::infinity();
  for (int v = 0; v < metric.num_points(); ++v) {
    const double delay = expected_max_delay(
        metric, system, strategies[static_cast<std::size_t>(v)], placement, v);
    if (delay < best_delay) {
      best_delay = delay;
      best = v;
    }
  }
  return best;
}

double relay_delay_multi(const graph::Metric& metric,
                         const quorum::QuorumSystem& system,
                         const PerClientStrategies& strategies,
                         const std::vector<double>& client_weights,
                         const Placement& placement, int relay) {
  check_arity(metric, system, strategies);
  if (relay < 0 || relay >= metric.num_points()) {
    throw std::invalid_argument("relay_delay_multi: relay out of range");
  }
  const std::vector<double> weights =
      normalized(client_weights, metric.num_points());
  double total = 0.0;
  for (int v = 0; v < metric.num_points(); ++v) {
    const double w = weights[static_cast<std::size_t>(v)];
    if (w == 0.0) continue;
    double expected = 0.0;
    for (int q = 0; q < system.num_quorums(); ++q) {
      expected +=
          strategies[static_cast<std::size_t>(v)].probability(q) *
          (metric(v, relay) +
           max_delay(metric, system.quorum(q), placement, relay));
    }
    total += w * expected;
  }
  return total;
}

quorum::AccessStrategy average_strategy(
    const quorum::QuorumSystem& system, const PerClientStrategies& strategies,
    const std::vector<double>& client_weights) {
  if (strategies.empty()) {
    throw std::invalid_argument("average_strategy: no strategies");
  }
  const std::vector<double> weights =
      normalized(client_weights, static_cast<int>(strategies.size()));
  std::vector<double> mean(static_cast<std::size_t>(system.num_quorums()), 0.0);
  for (std::size_t v = 0; v < strategies.size(); ++v) {
    if (strategies[v].num_quorums() != system.num_quorums()) {
      throw std::invalid_argument("average_strategy: strategy/system mismatch");
    }
    for (int q = 0; q < system.num_quorums(); ++q) {
      mean[static_cast<std::size_t>(q)] +=
          weights[v] * strategies[v].probability(q);
    }
  }
  return quorum::AccessStrategy(system, std::move(mean));
}

std::optional<MultiStrategyQppResult> solve_qpp_multi(
    const graph::Metric& metric, const std::vector<double>& capacities,
    const quorum::QuorumSystem& system, const PerClientStrategies& strategies,
    const std::vector<double>& client_weights, const QppSolveOptions& options) {
  check_arity(metric, system, strategies);
  // Under rate-weighted averaging, p-bar's element loads are the true
  // expected loads of the multi-strategy system, so capacities are enforced
  // against the correct quantities.
  const quorum::AccessStrategy mean =
      average_strategy(system, strategies, client_weights);
  const QppInstance averaged(metric, capacities, system, mean, client_weights);

  // The Thm 1.2 relay sweep under p-bar, scored by the true objective.
  const auto sweep = ssqpp_relay_sweep(
      averaged, options, [&](const SsqppResult& single) {
        return average_max_delay_multi(metric, system, strategies,
                                       client_weights, single.placement);
      });
  if (!sweep.winner) return std::nullopt;
  const auto& won = sweep.feasible[*sweep.winner];
  return MultiStrategyQppResult{
      .placement = won.solution.placement,
      .chosen_source = won.source,
      .average_delay = won.objective,
      .load_violation = max_capacity_violation(
          averaged.element_loads(), capacities, won.solution.placement)};
}

}  // namespace qp::core
