#include "core/evaluators.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace qp::core {

namespace {

/// Weighted per-client averages (Avg_v Delta_f(v) / Gamma_f(v)): chunked
/// summation with ordered reduction. The chunk structure depends only on the
/// client count (exec::kReductionGrain), so the result is bit-identical for
/// any thread count; instances with <= kReductionGrain clients keep the
/// exact sequential summation order.
template <typename PerClient>
double weighted_client_average(const QppInstance& instance,
                               const PerClient& per_client) {
  return exec::parallel_map_reduce(
      static_cast<std::size_t>(instance.num_nodes()), 0.0,
      [&](std::size_t v) {
        const double weight = instance.client_weights()[v];
        if (weight == 0.0) return 0.0;
        return weight * per_client(static_cast<int>(v));
      },
      [](double acc, double term) { return acc + term; },
      exec::kReductionGrain);
}

}  // namespace

double max_delay(const graph::Metric& metric, const quorum::Quorum& quorum,
                 const Placement& placement, int client) {
  double worst = 0.0;
  for (int u : quorum) {
    worst = std::max(worst,
                     metric(client, placement[static_cast<std::size_t>(u)]));
  }
  return worst;
}

double total_delay(const graph::Metric& metric, const quorum::Quorum& quorum,
                   const Placement& placement, int client) {
  double total = 0.0;
  for (int u : quorum) {
    total += metric(client, placement[static_cast<std::size_t>(u)]);
  }
  return total;
}

double expected_max_delay(const graph::Metric& metric,
                          const quorum::QuorumSystem& system,
                          const quorum::AccessStrategy& strategy,
                          const Placement& placement, int client) {
  double expectation = 0.0;
  for (int qi = 0; qi < system.num_quorums(); ++qi) {
    expectation +=
        strategy.probability(qi) *
        max_delay(metric, system.quorum(qi), placement, client);
  }
  return expectation;
}

double expected_total_delay(const graph::Metric& metric,
                            const quorum::QuorumSystem& system,
                            const quorum::AccessStrategy& strategy,
                            const Placement& placement, int client) {
  double expectation = 0.0;
  for (int qi = 0; qi < system.num_quorums(); ++qi) {
    expectation +=
        strategy.probability(qi) *
        total_delay(metric, system.quorum(qi), placement, client);
  }
  return expectation;
}

namespace {

void check_placement(const Placement& placement, int universe_size,
                     int num_nodes, const char* where) {
  if (!is_valid_placement(placement, universe_size, num_nodes)) {
    throw std::invalid_argument(std::string(where) + ": invalid placement");
  }
}

}  // namespace

double average_max_delay(const QppInstance& instance,
                         const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "average_max_delay");
  QP_SPAN("eval.average_max_delay");
  return weighted_client_average(instance, [&](int v) {
    return expected_max_delay(instance.metric(), instance.system(),
                              instance.strategy(), placement, v);
  });
}

double average_total_delay(const QppInstance& instance,
                           const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "average_total_delay");
  return weighted_client_average(instance, [&](int v) {
    return expected_total_delay(instance.metric(), instance.system(),
                                instance.strategy(), placement, v);
  });
}

double source_expected_max_delay(const SsqppInstance& instance,
                                 const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "source_expected_max_delay");
  return expected_max_delay(instance.metric(), instance.system(),
                            instance.strategy(), placement, instance.source());
}

std::vector<double> node_loads(const std::vector<double>& element_loads,
                               const Placement& placement, int num_nodes) {
  check_placement(placement, static_cast<int>(element_loads.size()), num_nodes,
                  "node_loads");
  std::vector<double> loads(static_cast<std::size_t>(num_nodes), 0.0);
  for (std::size_t u = 0; u < placement.size(); ++u) {
    loads[static_cast<std::size_t>(placement[u])] += element_loads[u];
  }
  return loads;
}

double max_capacity_violation(const std::vector<double>& element_loads,
                              const std::vector<double>& capacities,
                              const Placement& placement) {
  const std::vector<double> loads = node_loads(
      element_loads, placement, static_cast<int>(capacities.size()));
  double worst = 0.0;
  for (std::size_t v = 0; v < capacities.size(); ++v) {
    if (loads[v] == 0.0) continue;
    if (capacities[v] == 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst, loads[v] / capacities[v]);
  }
  return worst;
}

bool is_capacity_feasible(const std::vector<double>& element_loads,
                          const std::vector<double>& capacities,
                          const Placement& placement, double tolerance) {
  const std::vector<double> loads = node_loads(
      element_loads, placement, static_cast<int>(capacities.size()));
  for (std::size_t v = 0; v < capacities.size(); ++v) {
    if (loads[v] > capacities[v] * (1.0 + tolerance) + tolerance) return false;
  }
  return true;
}

double relay_delay(const QppInstance& instance, const Placement& placement,
                   int relay_node) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "relay_delay");
  if (relay_node < 0 || relay_node >= instance.num_nodes()) {
    throw std::invalid_argument("relay_delay: relay node out of range");
  }
  double average_distance = 0.0;
  for (int v = 0; v < instance.num_nodes(); ++v) {
    average_distance += instance.client_weights()[static_cast<std::size_t>(v)] *
                        instance.metric()(v, relay_node);
  }
  return average_distance +
         expected_max_delay(instance.metric(), instance.system(),
                            instance.strategy(), placement, relay_node);
}

double closest_quorum_delay(const graph::Metric& metric,
                            const quorum::QuorumSystem& system,
                            const Placement& placement, int client) {
  if (system.num_quorums() == 0) {
    throw std::invalid_argument("closest_quorum_delay: empty quorum system");
  }
  double best = std::numeric_limits<double>::infinity();
  for (int qi = 0; qi < system.num_quorums(); ++qi) {
    best = std::min(best,
                    max_delay(metric, system.quorum(qi), placement, client));
  }
  return best;
}

double average_closest_quorum_delay(const QppInstance& instance,
                                    const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "average_closest_quorum_delay");
  return weighted_client_average(instance, [&](int v) {
    return closest_quorum_delay(instance.metric(), instance.system(),
                                placement, v);
  });
}

int best_relay_node(const QppInstance& instance, const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "best_relay_node");
  // Argmin with a strict `<`: ties resolve to the lowest node id under any
  // chunking, so the parallel result matches the sequential scan exactly.
  struct Best {
    double delay = std::numeric_limits<double>::infinity();
    int node = 0;
  };
  const Best best = exec::parallel_map_reduce(
      static_cast<std::size_t>(instance.num_nodes()), Best{},
      [&](std::size_t v) {
        return Best{expected_max_delay(instance.metric(), instance.system(),
                                       instance.strategy(), placement,
                                       static_cast<int>(v)),
                    static_cast<int>(v)};
      },
      [](Best acc, Best candidate) {
        return candidate.delay < acc.delay ? candidate : acc;
      },
      /*grain=*/4);
  return best.node;
}

}  // namespace qp::core
