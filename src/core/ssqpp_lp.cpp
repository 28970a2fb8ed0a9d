#include "core/ssqpp_lp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "lp/model.hpp"
#include "obs/obs.hpp"

namespace qp::core {

namespace {

/// Contract helper: every x_tu / x_tQ column of a (filtered) solution
/// carries total mass 1 -- the Sec 3.3.1 filtering guarantee.
[[maybe_unused]] bool columns_stochastic(const FractionalSsqpp& solution,
                                         double tolerance) {
  for (int u = 0; u < solution.universe_size; ++u) {
    double mass = 0.0;
    for (int t = 0; t < solution.num_nodes; ++t) mass += solution.xu(t, u);
    if (std::abs(mass - 1.0) > tolerance) return false;
  }
  for (int q = 0; q < solution.num_quorums; ++q) {
    double mass = 0.0;
    for (int t = 0; t < solution.num_nodes; ++t) mass += solution.xq(t, q);
    if (std::abs(mass - 1.0) > tolerance) return false;
  }
  return true;
}

}  // namespace

double FractionalSsqpp::quorum_distance(int q) const {
  double dq = 0.0;
  for (int t = 0; t < num_nodes; ++t) {
    dq += sorted_distance[static_cast<std::size_t>(t)] * xq(t, q);
  }
  return dq;
}

SsqppLp build_ssqpp_lp(const SsqppInstance& instance) {
  const int n = instance.num_nodes();
  const int num_elements = instance.system().universe_size();
  const int num_quorums = instance.system().num_quorums();
  const std::vector<double>& loads = instance.element_loads();

  SsqppLp out;
  out.node_order = instance.metric().nodes_by_distance_from(instance.source());
  out.sorted_distance.resize(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    out.sorted_distance[static_cast<std::size_t>(t)] = instance.metric()(
        instance.source(), out.node_order[static_cast<std::size_t>(t)]);
  }

  lp::Model& model = out.model;
  out.var_tu.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(num_elements), -1);
  out.var_tq.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(num_quorums), -1);
  const auto tu = [&](int t, int u) -> int& {
    return out.var_tu[static_cast<std::size_t>(t) *
                          static_cast<std::size_t>(num_elements) +
                      static_cast<std::size_t>(u)];
  };
  const auto tq = [&](int t, int q) -> int& {
    return out.var_tq[static_cast<std::size_t>(t) *
                          static_cast<std::size_t>(num_quorums) +
                      static_cast<std::size_t>(q)];
  };
  for (int t = 0; t < n; ++t) {
    const double cap =
        instance.capacity(out.node_order[static_cast<std::size_t>(t)]);
    for (int u = 0; u < num_elements; ++u) {
      if (loads[static_cast<std::size_t>(u)] <= cap + 1e-12) {  // (13)
        tu(t, u) = model.add_variable(0.0);
      }
    }
    for (int q = 0; q < num_quorums; ++q) {
      // Objective (9): sum_Q p0(Q) sum_t d_t x_{tQ}.
      tq(t, q) = model.add_variable(
          instance.strategy().probability(q) *
          out.sorted_distance[static_cast<std::size_t>(t)]);
    }
  }

  // (10): each element placed exactly once.
  for (int u = 0; u < num_elements; ++u) {
    std::vector<std::pair<int, double>> terms;
    for (int t = 0; t < n; ++t) {
      if (tu(t, u) >= 0) terms.emplace_back(tu(t, u), 1.0);
    }
    if (terms.empty()) {
      out.element_fits = false;
      return out;
    }
    model.add_constraint(std::move(terms), lp::Relation::kEqual, 1.0);
  }
  // (11): each quorum completes exactly once.
  for (int q = 0; q < num_quorums; ++q) {
    std::vector<std::pair<int, double>> terms;
    for (int t = 0; t < n; ++t) terms.emplace_back(tq(t, q), 1.0);
    model.add_constraint(std::move(terms), lp::Relation::kEqual, 1.0);
  }
  // (12): node capacities.
  for (int t = 0; t < n; ++t) {
    std::vector<std::pair<int, double>> terms;
    for (int u = 0; u < num_elements; ++u) {
      if (tu(t, u) >= 0) {
        terms.emplace_back(tu(t, u), loads[static_cast<std::size_t>(u)]);
      }
    }
    if (!terms.empty()) {
      model.add_constraint(
          std::move(terms), lp::Relation::kLessEqual,
          instance.capacity(out.node_order[static_cast<std::size_t>(t)]));
    }
  }
  // (14): prefix of x_{.Q} dominated by prefix of x_{.u} for each u in Q.
  // The t = n-1 row is implied by (10) and (11), so it is skipped.
  for (int q = 0; q < num_quorums; ++q) {
    for (int u : instance.system().quorum(q)) {
      std::vector<std::pair<int, double>> prefix;
      for (int t = 0; t + 1 < n; ++t) {
        prefix.emplace_back(tq(t, q), 1.0);
        if (tu(t, u) >= 0) prefix.emplace_back(tu(t, u), -1.0);
        model.add_constraint(prefix, lp::Relation::kLessEqual, 0.0);
      }
    }
  }

  // Model size of LP (9)-(14); a pure function of the instance.
  QP_COUNTER_ADD("ssqpp_lp.models", 1);
  QP_COUNTER_ADD("ssqpp_lp.variables", model.num_variables());
  QP_COUNTER_ADD("ssqpp_lp.constraints", model.num_constraints());
  return out;
}

FractionalSsqpp solve_ssqpp_lp(const SsqppInstance& instance,
                               const lp::SimplexOptions& options) {
  SsqppLp lp = build_ssqpp_lp(instance);
  FractionalSsqpp out;
  out.num_nodes = instance.num_nodes();
  out.universe_size = instance.system().universe_size();
  out.num_quorums = instance.system().num_quorums();
  out.node_order = std::move(lp.node_order);
  out.sorted_distance = std::move(lp.sorted_distance);
  out.quorum_probability = instance.strategy().probabilities();
  if (!lp.element_fits) {
    out.status = lp::SolveStatus::kInfeasible;  // element fits nowhere
    return out;
  }
  lp::Solution solution = lp::solve(lp.model, options);
  out.status = solution.status;
  if (solution.status != lp::SolveStatus::kOptimal) return out;
  out.objective = solution.objective;
  out.duals = std::move(solution.duals);
  out.x_tu.assign(lp.var_tu.size(), 0.0);
  out.x_tq.assign(lp.var_tq.size(), 0.0);
  for (std::size_t i = 0; i < lp.var_tu.size(); ++i) {
    if (lp.var_tu[i] >= 0) {
      out.x_tu[i] = std::max(
          0.0, solution.values[static_cast<std::size_t>(lp.var_tu[i])]);
    }
  }
  for (std::size_t i = 0; i < lp.var_tq.size(); ++i) {
    out.x_tq[i] =
        std::max(0.0, solution.values[static_cast<std::size_t>(lp.var_tq[i])]);
  }
  QP_INVARIANT(check::validate_lp_solution(instance, out).ok(),
               "LP (9)-(14) optimum must be primal-feasible");
  return out;
}

namespace {

/// Applies the Sec 3.3.1 filtering to one column (fixed u or Q) laid out
/// with stride over t: x~_t = min(alpha * x_t, 1 - mass so far).
void filter_column(const std::vector<double>& x, std::vector<double>& out,
                   int num_rows, std::size_t offset, std::size_t stride,
                   double alpha) {
  double cumulative = 0.0;
  for (int t = 0; t < num_rows; ++t) {
    const std::size_t idx = offset + static_cast<std::size_t>(t) * stride;
    const double headroom = 1.0 - cumulative;
    if (headroom <= 0.0) {
      out[idx] = 0.0;
      continue;
    }
    const double value = std::min(alpha * x[idx], headroom);
    out[idx] = value;
    cumulative += value;
  }
}

}  // namespace

FractionalSsqpp filter_fractional(const FractionalSsqpp& fractional,
                                  double alpha) {
  if (!(alpha > 1.0)) {
    throw std::invalid_argument("filter_fractional: alpha > 1 required");
  }
  if (fractional.status != lp::SolveStatus::kOptimal) {
    throw std::invalid_argument("filter_fractional: needs an optimal solution");
  }
  FractionalSsqpp out = fractional;
  out.duals.clear();  // the filtered solution is no longer an LP optimum
  const auto num_elements = static_cast<std::size_t>(fractional.universe_size);
  const auto num_quorums = static_cast<std::size_t>(fractional.num_quorums);
  for (std::size_t u = 0; u < num_elements; ++u) {
    filter_column(fractional.x_tu, out.x_tu, fractional.num_nodes, u,
                  num_elements, alpha);
  }
  for (std::size_t q = 0; q < num_quorums; ++q) {
    filter_column(fractional.x_tq, out.x_tq, fractional.num_nodes, q,
                  num_quorums, alpha);
  }
  // Recompute the (no larger) objective of the filtered solution.
  out.objective = 0.0;
  for (int q = 0; q < fractional.num_quorums; ++q) {
    out.objective +=
        fractional.quorum_probability[static_cast<std::size_t>(q)] *
        out.quorum_distance(q);
  }
  QP_INVARIANT(columns_stochastic(out, 1e-6),
               "alpha-filtering must keep per-column mass exactly 1");
  QP_INVARIANT(out.objective <= fractional.objective + 1e-6,
               "filtering moves mass toward the source, so the objective "
               "cannot grow (paper Sec 3.3.1)");
  return out;
}

}  // namespace qp::core
