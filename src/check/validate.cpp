#include "check/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <utility>

namespace qp::check {

namespace {

std::string num(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", x);
  return buffer;
}

std::string idx2(int i, int j) {
  return "(" + std::to_string(i) + ", " + std::to_string(j) + ")";
}

bool triangle_violated(const graph::Metric& m, int i, int j, int k,
                       double tolerance) {
  return m(i, k) > m(i, j) + m(j, k) + tolerance;
}

/// Shared core of validate_instance and validate_view: everything but the
/// metric of an instance over \p n nodes.
ValidationReport validate_instance_parts(
    int n, const std::vector<double>& capacities,
    const quorum::QuorumSystem& system, const quorum::AccessStrategy& strategy,
    const std::vector<double>& element_loads) {
  ValidationReport report;
  if (static_cast<int>(capacities.size()) != n) {
    report.add("instance/capacity-count",
               std::to_string(capacities.size()) + " capacities for " +
                   std::to_string(n) + " nodes");
  }
  for (std::size_t v = 0; v < capacities.size(); ++v) {
    if (!std::isfinite(capacities[v]) || capacities[v] < 0.0) {
      report.add("instance/capacity-negative",
                 "cap(" + std::to_string(v) + ") = " + num(capacities[v]));
      break;
    }
  }

  const int universe = system.universe_size();
  if (system.num_quorums() == 0) {
    report.add("system/empty", "quorum system has no quorums");
  }
  for (int q = 0; q < system.num_quorums(); ++q) {
    const quorum::Quorum& quorum = system.quorum(q);
    if (quorum.empty()) {
      report.add("system/empty-quorum", "Q_" + std::to_string(q));
      break;
    }
    const auto out_of_range = [universe](int u) {
      return u < 0 || u >= universe;
    };
    if (std::any_of(quorum.begin(), quorum.end(), out_of_range)) {
      report.add("system/element-out-of-range",
                 "Q_" + std::to_string(q) + " leaves U = {0.." +
                     std::to_string(universe - 1) + "}");
      break;
    }
  }

  if (strategy.num_quorums() != system.num_quorums()) {
    report.add("strategy/size-mismatch",
               std::to_string(strategy.num_quorums()) + " probabilities for " +
                   std::to_string(system.num_quorums()) + " quorums");
  } else {
    double total = 0.0;
    bool negative = false;
    for (int q = 0; q < strategy.num_quorums(); ++q) {
      const double p = strategy.probability(q);
      if (p < 0.0 || !std::isfinite(p)) negative = true;
      total += p;
    }
    if (negative) {
      report.add("strategy/negative", "some p(Q) < 0 or non-finite");
    }
    if (std::abs(total - 1.0) > 1e-9) {
      report.add("strategy/not-normalized", "sum p(Q) = " + num(total));
    }
  }

  if (strategy.num_quorums() == system.num_quorums()) {
    const std::vector<double> expected =
        quorum::element_loads(system, strategy);
    if (expected.size() != element_loads.size()) {
      report.add("instance/load-count",
                 std::to_string(element_loads.size()) + " cached loads for " +
                     std::to_string(expected.size()) + " elements");
    } else {
      for (std::size_t u = 0; u < expected.size(); ++u) {
        if (std::abs(expected[u] - element_loads[u]) > 1e-9) {
          report.add("instance/load-mismatch",
                     "load(" + std::to_string(u) + ") cached " +
                         num(element_loads[u]) + " vs recomputed " +
                         num(expected[u]));
          break;
        }
      }
    }
  }
  return report;
}

ValidationReport validate_placement_parts(
    const core::Placement& placement, int universe_size, int num_nodes,
    const std::vector<double>& element_loads,
    const std::vector<double>& capacities,
    const PlacementCheckOptions& options) {
  ValidationReport report;
  if (static_cast<int>(placement.size()) != universe_size) {
    report.add("placement/size",
               std::to_string(placement.size()) + " entries for |U| = " +
                   std::to_string(universe_size));
    return report;
  }
  for (std::size_t u = 0; u < placement.size(); ++u) {
    if (placement[u] < 0 || placement[u] >= num_nodes) {
      report.add("placement/out-of-range",
                 "f(" + std::to_string(u) + ") = " +
                     std::to_string(placement[u]) + " not in V = {0.." +
                     std::to_string(num_nodes - 1) + "}");
      return report;
    }
  }
  std::vector<double> loads(static_cast<std::size_t>(num_nodes), 0.0);
  for (std::size_t u = 0; u < placement.size(); ++u) {
    loads[static_cast<std::size_t>(placement[u])] += element_loads[u];
  }
  for (int v = 0; v < num_nodes; ++v) {
    const double load = loads[static_cast<std::size_t>(v)];
    const double cap = capacities[static_cast<std::size_t>(v)];
    if (load > options.max_load_factor * cap + options.tolerance) {
      report.add("placement/over-capacity",
                 "load_f(" + std::to_string(v) + ") = " + num(load) + " > " +
                     num(options.max_load_factor) + " * cap = " +
                     num(options.max_load_factor * cap));
    }
  }
  return report;
}

}  // namespace

void ValidationReport::add(std::string code, std::string detail) {
  issues.push_back({std::move(code), std::move(detail)});
}

void ValidationReport::merge(const ValidationReport& other) {
  issues.insert(issues.end(), other.issues.begin(), other.issues.end());
}

std::string ValidationReport::to_string() const {
  std::string out;
  for (const ValidationIssue& issue : issues) {
    out += issue.code + ": " + issue.detail + "\n";
  }
  return out;
}

ValidationReport validate_metric(const graph::Metric& metric,
                                 const MetricCheckOptions& options) {
  // Finiteness, non-negativity, the zero diagonal and exact symmetry are
  // thrown on by every Metric constructor; only the triangle inequality is
  // left to check.
  ValidationReport report;
  const int n = metric.num_points();
  if (n <= options.exhaustive_triangle_limit) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        for (int k = 0; k < n; ++k) {
          if (triangle_violated(metric, i, j, k, options.tolerance)) {
            report.add("metric/triangle",
                       "d" + idx2(i, k) + " = " + num(metric(i, k)) +
                           " > d" + idx2(i, j) + " + d" + idx2(j, k) + " = " +
                           num(metric(i, j) + metric(j, k)));
            return report;
          }
        }
      }
    }
  } else {
    std::mt19937_64 rng(options.seed);
    std::uniform_int_distribution<int> pick(0, n - 1);
    for (int s = 0; s < options.triangle_samples; ++s) {
      const int i = pick(rng);
      const int j = pick(rng);
      const int k = pick(rng);
      if (triangle_violated(metric, i, j, k, options.tolerance)) {
        report.add("metric/triangle",
                   "sampled triple " + std::to_string(i) + ", " +
                       std::to_string(j) + ", " + std::to_string(k) +
                       " violates d(i,k) <= d(i,j) + d(j,k)");
        return report;
      }
    }
  }
  return report;
}

ValidationReport validate_strategy(const quorum::QuorumSystem& system,
                                   const std::vector<double>& probabilities) {
  ValidationReport report;
  if (static_cast<int>(probabilities.size()) != system.num_quorums()) {
    report.add("strategy/size-mismatch",
               std::to_string(probabilities.size()) + " probabilities for " +
                   std::to_string(system.num_quorums()) + " quorums");
    return report;
  }
  double total = 0.0;
  bool negative = false;
  for (std::size_t q = 0; q < probabilities.size(); ++q) {
    const double p = probabilities[q];
    if (!negative && (p < 0.0 || !std::isfinite(p))) {
      report.add("strategy/negative",
                 "p(Q_" + std::to_string(q) + ") = " + num(p));
      negative = true;
    }
    total += p;
  }
  if (!negative && std::abs(total - 1.0) > 1e-9) {
    report.add("strategy/not-normalized", "sum p(Q) = " + num(total));
  }
  return report;
}

ValidationReport validate_instance(const core::QppInstance& instance,
                                   const MetricCheckOptions& options) {
  ValidationReport report = validate_metric(instance.metric(), options);
  report.merge(validate_instance_parts(
      instance.num_nodes(), instance.capacities(), instance.system(),
      instance.strategy(), instance.element_loads()));

  const std::vector<double>& weights = instance.client_weights();
  if (static_cast<int>(weights.size()) != instance.num_nodes()) {
    report.add("instance/weight-count",
               std::to_string(weights.size()) + " client weights for " +
                   std::to_string(instance.num_nodes()) + " nodes");
    return report;
  }
  double total = 0.0;
  for (std::size_t v = 0; v < weights.size(); ++v) {
    if (weights[v] < 0.0 || !std::isfinite(weights[v])) {
      report.add("instance/weight-negative",
                 "w(" + std::to_string(v) + ") = " + num(weights[v]));
      return report;
    }
    total += weights[v];
  }
  if (std::abs(total - 1.0) > 1e-9) {
    report.add("instance/weights-not-normalized", "sum w(v) = " + num(total));
  }
  return report;
}

ValidationReport validate_instance(const core::SsqppInstance& instance,
                                   const MetricCheckOptions& options) {
  ValidationReport report = validate_metric(instance.metric(), options);
  report.merge(validate_view(instance));
  return report;
}

ValidationReport validate_view(const core::SsqppInstance& instance) {
  ValidationReport report = validate_instance_parts(
      instance.num_nodes(), instance.capacities(), instance.system(),
      instance.strategy(), instance.element_loads());
  if (instance.source() < 0 || instance.source() >= instance.num_nodes()) {
    report.add("instance/source-out-of-range",
               "v0 = " + std::to_string(instance.source()));
  }
  return report;
}

ValidationReport validate_placement(const core::QppInstance& instance,
                                    const core::Placement& placement,
                                    const PlacementCheckOptions& options) {
  return validate_placement_parts(placement, instance.system().universe_size(),
                                  instance.num_nodes(),
                                  instance.element_loads(),
                                  instance.capacities(), options);
}

ValidationReport validate_placement(const core::SsqppInstance& instance,
                                    const core::Placement& placement,
                                    const PlacementCheckOptions& options) {
  return validate_placement_parts(placement, instance.system().universe_size(),
                                  instance.num_nodes(),
                                  instance.element_loads(),
                                  instance.capacities(), options);
}

ValidationReport validate_lp_solution(const core::SsqppInstance& instance,
                                      const core::FractionalSsqpp& solution,
                                      const LpCheckOptions& options) {
  ValidationReport report;
  if (solution.status != lp::SolveStatus::kOptimal) {
    report.add("lp/not-optimal",
               "status = " + lp::to_string(solution.status));
    return report;
  }
  const int n = solution.num_nodes;
  const int universe = solution.universe_size;
  const int quorums = solution.num_quorums;
  if (n != instance.num_nodes() ||
      universe != instance.system().universe_size() ||
      quorums != instance.system().num_quorums()) {
    report.add("lp/shape-mismatch",
               "solution dimensions do not match the instance");
    return report;
  }
  if (solution.x_tu.size() !=
          static_cast<std::size_t>(n) * static_cast<std::size_t>(universe) ||
      solution.x_tq.size() !=
          static_cast<std::size_t>(n) * static_cast<std::size_t>(quorums)) {
    report.add("lp/shape-mismatch", "x_tu / x_tq size is not n*|U| / n*|Q|");
    return report;
  }

  // Node ordering: a permutation sorted by distance from the source.
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (int t = 0; t < n; ++t) {
    const int v = solution.node_order[static_cast<std::size_t>(t)];
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) {
      report.add("lp/node-order", "node_order is not a permutation of V");
      return report;
    }
    seen[static_cast<std::size_t>(v)] = true;
    const double expected = instance.metric()(instance.source(), v);
    if (std::abs(solution.sorted_distance[static_cast<std::size_t>(t)] -
                 expected) > options.tolerance) {
      report.add("lp/distance-mismatch",
                 "d_" + std::to_string(t) + " != d(v0, node_order[t])");
      return report;
    }
    if (t > 0 && solution.sorted_distance[static_cast<std::size_t>(t)] +
                         options.tolerance <
                     solution.sorted_distance[static_cast<std::size_t>(t - 1)]) {
      report.add("lp/distance-unsorted",
                 "d_t decreases at t = " + std::to_string(t));
      return report;
    }
  }

  // Non-negativity of all variables.
  const auto negative = [&](double x) { return x < -options.tolerance; };
  if (std::any_of(solution.x_tu.begin(), solution.x_tu.end(), negative) ||
      std::any_of(solution.x_tq.begin(), solution.x_tq.end(), negative)) {
    report.add("lp/negative-variable", "some x_tu or x_tQ is < 0");
  }

  // (10): each element's column sums to 1.
  for (int u = 0; u < universe; ++u) {
    double mass = 0.0;
    for (int t = 0; t < n; ++t) mass += solution.xu(t, u);
    if (std::abs(mass - 1.0) > options.tolerance) {
      report.add("lp/element-mass",
                 "sum_t x_tu for u = " + std::to_string(u) + " is " +
                     num(mass));
      break;
    }
  }
  // (11): each quorum's column sums to 1.
  for (int q = 0; q < quorums; ++q) {
    double mass = 0.0;
    for (int t = 0; t < n; ++t) mass += solution.xq(t, q);
    if (std::abs(mass - 1.0) > options.tolerance) {
      report.add("lp/quorum-mass",
                 "sum_t x_tQ for Q = " + std::to_string(q) + " is " +
                     num(mass));
      break;
    }
  }
  // (12)/(13): capacity of each (sorted) node row.
  const std::vector<double>& loads = instance.element_loads();
  for (int t = 0; t < n; ++t) {
    double used = 0.0;
    for (int u = 0; u < universe; ++u) {
      used += loads[static_cast<std::size_t>(u)] * solution.xu(t, u);
    }
    const double budget =
        options.load_scale *
        instance.capacity(solution.node_order[static_cast<std::size_t>(t)]);
    if (used > budget + options.tolerance) {
      report.add("lp/over-capacity",
                 "row t = " + std::to_string(t) + " uses " + num(used) +
                     " of budget " + num(budget));
      break;
    }
  }
  // (14): prefix of x_{.Q} dominated by prefix of x_{.u} for u in Q.
  bool dominance_ok = true;
  for (int q = 0; q < quorums && dominance_ok; ++q) {
    for (int u : instance.system().quorum(q)) {
      double quorum_prefix = 0.0;
      double element_prefix = 0.0;
      for (int t = 0; t + 1 < n; ++t) {
        quorum_prefix += solution.xq(t, q);
        element_prefix += solution.xu(t, u);
        if (quorum_prefix > element_prefix + options.tolerance) {
          report.add("lp/prefix-dominance",
                     "sum_{s<=t} x_sQ > sum_{s<=t} x_su at t = " +
                         std::to_string(t) + " for Q = " + std::to_string(q) +
                         ", u = " + std::to_string(u));
          dominance_ok = false;
          break;
        }
      }
      if (!dominance_ok) break;
    }
  }
  // (9): recorded objective equals sum_Q p(Q) D_Q.
  if (options.check_objective) {
    double objective = 0.0;
    for (int q = 0; q < quorums; ++q) {
      objective += solution.quorum_probability[static_cast<std::size_t>(q)] *
                   solution.quorum_distance(q);
    }
    if (std::abs(objective - solution.objective) >
        options.tolerance * std::max(1.0, std::abs(objective))) {
      report.add("lp/objective-mismatch",
                 "recorded " + num(solution.objective) + " vs recomputed " +
                     num(objective));
    }
  }
  return report;
}

}  // namespace qp::check
