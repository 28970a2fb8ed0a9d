#include "core/ssqpp_lp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/exact.hpp"
#include "core/qpp_solver.hpp"
#include "graph/generators.hpp"
#include "lp/model.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"

namespace qp::core {
namespace {

SsqppInstance line_grid_instance(int k, int num_nodes, double cap) {
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(num_nodes, 1.0));
  const quorum::QuorumSystem system = quorum::grid(k);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  return SsqppInstance(metric, std::vector<double>(
                                   static_cast<std::size_t>(num_nodes), cap),
                       system, strategy, 0);
}

TEST(SsqppLp, SolvesAndOrdersNodes) {
  const SsqppInstance instance = line_grid_instance(2, 6, 1.0);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(f.num_nodes, 6);
  EXPECT_EQ(f.universe_size, 4);
  EXPECT_EQ(f.num_quorums, 4);
  for (int t = 0; t + 1 < f.num_nodes; ++t) {
    EXPECT_LE(f.sorted_distance[static_cast<std::size_t>(t)],
              f.sorted_distance[static_cast<std::size_t>(t + 1)]);
  }
  EXPECT_EQ(f.node_order[0], 0);  // the source is nearest to itself
}

TEST(SsqppLp, MassConservationConstraints) {
  const SsqppInstance instance = line_grid_instance(2, 6, 1.0);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  for (int u = 0; u < f.universe_size; ++u) {
    double mass = 0.0;
    for (int t = 0; t < f.num_nodes; ++t) mass += f.xu(t, u);
    EXPECT_NEAR(mass, 1.0, 1e-7) << "element " << u;
  }
  for (int q = 0; q < f.num_quorums; ++q) {
    double mass = 0.0;
    for (int t = 0; t < f.num_nodes; ++t) mass += f.xq(t, q);
    EXPECT_NEAR(mass, 1.0, 1e-7) << "quorum " << q;
  }
}

TEST(SsqppLp, PrefixDominanceConstraint14) {
  const SsqppInstance instance = line_grid_instance(2, 6, 1.0);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  for (int q = 0; q < f.num_quorums; ++q) {
    for (int u : instance.system().quorum(q)) {
      double prefix_q = 0.0, prefix_u = 0.0;
      for (int t = 0; t < f.num_nodes; ++t) {
        prefix_q += f.xq(t, q);
        prefix_u += f.xu(t, u);
        EXPECT_LE(prefix_q, prefix_u + 1e-6)
            << "q=" << q << " u=" << u << " t=" << t;
      }
    }
  }
}

TEST(SsqppLp, CapacityConstraintRespectedFractionally) {
  const SsqppInstance instance = line_grid_instance(2, 4, 0.8);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  const auto& loads = instance.element_loads();
  for (int t = 0; t < f.num_nodes; ++t) {
    double node_load = 0.0;
    for (int u = 0; u < f.universe_size; ++u) {
      node_load += loads[static_cast<std::size_t>(u)] * f.xu(t, u);
    }
    EXPECT_LE(node_load, 0.8 + 1e-6);
  }
}

TEST(SsqppLp, LowerBoundsExactOptimum) {
  const SsqppInstance instance = line_grid_instance(2, 5, 0.8);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  const auto exact = exact_ssqpp(instance);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(f.objective, exact->delay + 1e-7);
}

TEST(SsqppLp, InfeasibleWhenElementFitsNowhere) {
  // Capacities below every element load (grid(2) load = 3/4).
  const SsqppInstance instance = line_grid_instance(2, 6, 0.5);
  EXPECT_EQ(solve_ssqpp_lp(instance).status, lp::SolveStatus::kInfeasible);
}

TEST(SsqppLp, InfeasibleWhenAggregateCapacityTooSmall) {
  // Each node holds exactly one of the four elements but only 3 nodes.
  const SsqppInstance instance = line_grid_instance(2, 3, 0.8);
  EXPECT_EQ(solve_ssqpp_lp(instance).status, lp::SolveStatus::kInfeasible);
}

TEST(SsqppLp, ObjectiveMatchesQuorumDistances) {
  const SsqppInstance instance = line_grid_instance(2, 6, 1.0);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  double total = 0.0;
  for (int q = 0; q < f.num_quorums; ++q) {
    total += f.quorum_probability[static_cast<std::size_t>(q)] *
             f.quorum_distance(q);
  }
  EXPECT_NEAR(total, f.objective, 1e-7);
}

// --- Rows and ranks: solve_ssqpp_lp against the full model -----------------

/// The counter's current value (0 if never incremented).
std::uint64_t counter(const std::string& name) {
  const auto counters = obs::Registry::instance().counter_values();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Solves the full LP (9)-(14) with lp::solve and checks that
/// solve_ssqpp_lp finds the same Z* and x, and that its named duals certify
/// Z* on the model of every column plus only the named rows. Returns the
/// number of named rows and of full-model rows.
std::pair<int, int> expect_matches_full_model(const SsqppInstance& instance) {
  const SsqppLp full = build_ssqpp_lp(instance);
  EXPECT_TRUE(full.element_fits);
  const lp::Solution reference = lp::solve(full.model);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  EXPECT_EQ(f.status, reference.status);
  if (f.status != lp::SolveStatus::kOptimal ||
      reference.status != lp::SolveStatus::kOptimal) {
    return {0, 0};
  }
  EXPECT_NEAR(f.objective, reference.objective, 1e-9);
  double max_dx = 0.0;
  const auto compare = [&](const std::vector<int>& vars,
                           const std::vector<double>& x) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const double full_x =
          vars[i] < 0 ? 0.0
                      : reference.values[static_cast<std::size_t>(vars[i])];
      max_dx = std::max(max_dx, std::abs(x[i] - full_x));
    }
  };
  compare(full.var_tu, f.x_tu);
  compare(full.var_tq, f.x_tq);
  EXPECT_LE(max_dx, 1e-12);
  const std::optional<SsqppLp> named = build_ssqpp_lp(instance, f.duals.rows);
  EXPECT_TRUE(named.has_value());
  if (!named) return {0, 0};
  EXPECT_NEAR(lp::dual_bound(named->model, f.duals.values), f.objective,
              1e-9);
  return {named->model.num_constraints(), full.model.num_constraints()};
}

/// (majority(5,3) rather than grid(3), n) of the geometric instances
/// `qplace solve --topology geometric --seed 1` builds, at several caps.
class RowsAndRanks : public ::testing::TestWithParam<std::tuple<bool, int>> {
};

TEST_P(RowsAndRanks, SameOptimumAsTheFullModel) {
  const auto [majority, n] = GetParam();
  const quorum::QuorumSystem system =
      majority ? quorum::majority(5, 3) : quorum::grid(3);
  std::mt19937_64 rng(1);
  const graph::Metric metric =
      graph::Metric::from_graph(graph::random_geometric(n, 0.45, rng).graph);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double max_load = *std::max_element(loads.begin(), loads.end());
  for (const double factor : {1.0, 1.2, 2.0, 3.0}) {
    for (const int source : {0, n / 2, n - 1}) {
      SCOPED_TRACE(testing::Message() << "cap " << factor << " source "
                                      << source);
      const auto [named_rows, full_rows] =
          expect_matches_full_model(SsqppInstance(
              metric,
              std::vector<double>(static_cast<std::size_t>(n),
                                  factor * max_load),
              system, strategy, source));
      EXPECT_LT(named_rows, full_rows);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Panel, RowsAndRanks,
    ::testing::Combine(::testing::Bool(), ::testing::Values(14, 32, 64)),
    [](const ::testing::TestParamInfo<RowsAndRanks::ParamType>& param) {
      return std::string(std::get<0>(param.param) ? "majority53" : "grid3") +
             "_n" + std::to_string(std::get<1>(param.param));
    });

TEST(SsqppLp, HeterogeneousCapsAndWeightsMatchTheFullModel) {
  // Every third node holds no element ((13) drops its columns), the others
  // differ in capacity, and quorums are accessed non-uniformly.
  std::mt19937_64 rng(1);
  const int n = 24;
  const graph::Metric metric =
      graph::Metric::from_graph(graph::random_geometric(n, 0.45, rng).graph);
  const quorum::QuorumSystem system = quorum::grid(3);
  std::vector<double> weights;
  for (int q = 0; q < system.num_quorums(); ++q) weights.push_back(1.0 + q);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (double& weight : weights) weight /= total;
  const quorum::AccessStrategy strategy(system, weights);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double max_load = *std::max_element(loads.begin(), loads.end());
  std::vector<double> caps;
  for (int v = 0; v < n; ++v) {
    caps.push_back((v % 3 == 0 ? 0.5 : 1.0 + 0.25 * (v % 4)) * max_load);
  }
  for (const int source : {0, 5, 17}) {
    SCOPED_TRACE(source);
    expect_matches_full_model(
        SsqppInstance(metric, caps, system, strategy, source));
  }

  // Weighted clients change only the sweep's score: every relay record's
  // Z* is still the full model's.
  std::vector<double> client_weights;
  for (int v = 0; v < n; ++v) client_weights.push_back(1.0 + v % 5);
  const QppInstance weighted(metric, caps, system, strategy, client_weights);
  const std::optional<QppResult> result = solve_qpp(weighted);
  ASSERT_TRUE(result.has_value());
  for (const RelayLp& record : result->relay_lps) {
    SCOPED_TRACE(record.source);
    const lp::Solution reference = lp::solve(
        build_ssqpp_lp(single_source_view(weighted, record.source)).model);
    ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
    EXPECT_NEAR(record.objective, reference.objective, 1e-9);
  }
}

TEST(SsqppLp, RankRestrictedInfeasibleIsWidenedFirst) {
  // From node 0 of a path, the five nearest nodes (cap 0.7) cover the total
  // load 3 but hold no element (load 3/4); only the last three (cap 1.0)
  // do. The seeded model is infeasible, the full LP is not.
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(8, 1.0));
  const quorum::QuorumSystem system = quorum::grid(2);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const SsqppInstance instance(
      metric, {0.7, 0.7, 0.7, 0.7, 0.7, 1.0, 1.0, 1.0}, system, strategy, 0);
  const std::uint64_t rounds = counter("ssqpp_lp.rounds");
  const std::uint64_t columns = counter("ssqpp_lp.columns_added");
  expect_matches_full_model(instance);
  EXPECT_EQ(solve_ssqpp_lp(instance).status, lp::SolveStatus::kOptimal);
  if (obs::compiled_in()) {
    EXPECT_GE(counter("ssqpp_lp.rounds") - rounds, 4u);  // 2 per solve
    EXPECT_GT(counter("ssqpp_lp.columns_added"), columns);
  }
}

TEST(SsqppLp, SeedHoldsEachElementsFirstFittingRank) {
  // From node 0 of a path, the ten nearest nodes (cap 0.7 x the largest
  // load) cover the total load, but the heavier elements fit only from node
  // 10 on. Seeded by capacity alone, the first model gives those elements
  // no column, so it is infeasible and is widened to all n ranks; a seed
  // that reaches each element's first fitting rank is optimal at once.
  const int n = 20;
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(n, 1.0));
  const quorum::QuorumSystem system = quorum::grid(3);
  std::vector<double> weights;
  for (int q = 0; q < system.num_quorums(); ++q) weights.push_back(1.0 + q);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (double& weight : weights) weight /= total;
  const quorum::AccessStrategy strategy(system, weights);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double max_load = *std::max_element(loads.begin(), loads.end());
  std::vector<double> caps;
  for (int v = 0; v < n; ++v) caps.push_back((v < 10 ? 0.7 : 5.0) * max_load);
  const SsqppInstance instance(metric, caps, system, strategy, 0);
  double near_capacity = 0.0;
  for (int v = 0; v < 10; ++v) {
    near_capacity += caps[static_cast<std::size_t>(v)];
  }
  ASSERT_GE(near_capacity,
            std::accumulate(loads.begin(), loads.end(), 0.0));

  const std::uint64_t rounds = counter("ssqpp_lp.rounds");
  const std::uint64_t columns = counter("ssqpp_lp.columns_added");
  expect_matches_full_model(instance);
  if (obs::compiled_in()) {
    EXPECT_EQ(counter("ssqpp_lp.rounds") - rounds, 1u);
    EXPECT_EQ(counter("ssqpp_lp.columns_added"), columns);
  }
}

/// Equal bit for bit: rows (terms, relations, rhs), objective and column
/// maps.
void expect_same_lp(const SsqppLp& a, const SsqppLp& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_EQ(a.element_fits, b.element_fits);
  EXPECT_EQ(a.var_tu, b.var_tu);
  EXPECT_EQ(a.var_tq, b.var_tq);
  ASSERT_EQ(a.model.num_variables(), b.model.num_variables());
  EXPECT_TRUE(std::ranges::equal(a.model.objective(), b.model.objective(),
                                 same));
  ASSERT_EQ(a.model.num_constraints(), b.model.num_constraints());
  for (int i = 0; i < a.model.num_constraints(); ++i) {
    SCOPED_TRACE(i);
    const auto row = static_cast<std::size_t>(i);
    const lp::Constraint& x = a.model.constraints()[row];
    const lp::Constraint& y = b.model.constraints()[row];
    EXPECT_EQ(x.relation, y.relation);
    EXPECT_TRUE(same(x.rhs, y.rhs));
    EXPECT_TRUE(std::ranges::equal(x.terms, y.terms, [&](const auto& s,
                                                         const auto& t) {
      return s.first == t.first && same(s.second, t.second);
    }));
  }
}

// On uniform capacities every relay's first model (build_seeded_ssqpp_lp
// with the sweep's seed, as solve_ssqpp_lp builds it) shares the seed's row
// object, and equals the model built for the relay alone bit for bit: rows,
// objective and column maps. Geometric and Waxman graphs of 6-30 nodes,
// grid(2), grid(3), grid(4) and majority(5,3), uniform and skewed
// strategies.
TEST(SsqppLp, SeedRowsSharedBitForBit) {
  std::mt19937_64 rng(17);
  const quorum::QuorumSystem systems[] = {quorum::grid(2), quorum::grid(3),
                                          quorum::grid(4),
                                          quorum::majority(5, 3)};
  constexpr int kNodes[] = {6,  12, 18, 24, 30, 9,  15, 21,
                            27, 8,  14, 20, 26, 30, 10, 16};
  for (int trial = 0; trial < 16; ++trial) {
    SCOPED_TRACE(trial);
    const quorum::QuorumSystem& system = systems[trial % 4];
    const int n = kNodes[trial];
    const bool waxman = (trial / 4) % 2 == 1;
    graph::Metric metric = graph::Metric::from_graph(
        waxman ? graph::waxman(n, 0.9, 0.4, rng).graph
               : graph::random_geometric(n, 0.45, rng).graph);
    std::vector<double> weights;
    for (int q = 0; q < system.num_quorums(); ++q) {
      weights.push_back(trial < 8 ? 1.0 : 1.0 + q % 3);
    }
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (double& weight : weights) weight /= total;
    const quorum::AccessStrategy strategy(system, weights);
    const std::vector<double> loads = quorum::element_loads(system, strategy);
    // On grid(4) capacities of 1.2 x the largest load seed about 1600 rows;
    // at 3 x they seed about 700, whose phase 1 is much quicker.
    const double cap = (trial % 4 == 2 ? 3.0 : 1.2) *
                       *std::max_element(loads.begin(), loads.end());
    const QppInstance instance(std::move(metric),
                               std::vector<double>(static_cast<std::size_t>(n),
                                                   cap),
                               system, strategy);
    const std::optional<SsqppSeed> seed =
        ssqpp_phase1_start(single_source_view(instance, 0));
    ASSERT_TRUE(seed.has_value());
    for (int source = 0; source < n; ++source) {
      SCOPED_TRACE(source);
      const SsqppInstance view = single_source_view(instance, source);
      const SsqppLp first = build_seeded_ssqpp_lp(view, &*seed);
      EXPECT_EQ(&first.model.constraints(), &seed->lp.model.constraints());
      expect_same_lp(first, build_seeded_ssqpp_lp(view));
    }
  }
}

TEST(SsqppLp, NamedRowModelRejectsBadNames) {
  const SsqppInstance instance = line_grid_instance(2, 6, 1.0);
  const int rows = build_ssqpp_lp(instance).model.num_constraints();
  EXPECT_TRUE(build_ssqpp_lp(instance, {0, 1, rows - 1}).has_value());
  EXPECT_FALSE(build_ssqpp_lp(instance, {0, 1, rows}).has_value());
  EXPECT_FALSE(build_ssqpp_lp(instance, {-1, 1}).has_value());
  EXPECT_FALSE(build_ssqpp_lp(instance, {1, 1}).has_value());
  EXPECT_FALSE(build_ssqpp_lp(instance, {2, 1}).has_value());
}

/// The weak-duality bound b.y + sum_j min(0, (c - A^T y)_j) over the named
/// rows of LP (9)-(14), read straight from the paper's rows in sorted-node
/// coordinates, with y projected onto each row's sign by hand: a second
/// description of the rows, independent of the library's generator.
double reference_ssqpp_bound(const SsqppInstance& instance,
                             const std::vector<int>& rows,
                             const std::vector<double>& y) {
  const int n = instance.num_nodes();
  const int num_u = instance.system().universe_size();
  const int num_q = instance.system().num_quorums();
  const std::vector<double>& loads = instance.element_loads();
  const std::vector<int> order =
      instance.metric().nodes_by_distance_from(instance.source());
  const auto at = [](int t, int width, int column) {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(width) +
           static_cast<std::size_t>(column);
  };
  const auto fits = [&](int t, int u) {
    return loads[static_cast<std::size_t>(u)] <=
           instance.capacity(order[static_cast<std::size_t>(t)]) + 1e-12;
  };
  std::vector<double> reduced_tu(at(n, num_u, 0), 0.0);
  std::vector<double> reduced_tq(at(n, num_q, 0), 0.0);
  std::vector<int> capacity_ranks;
  for (int t = 0; t < n; ++t) {
    const int node = order[static_cast<std::size_t>(t)];
    const double d = instance.metric()(instance.source(), node);
    for (int q = 0; q < num_q; ++q) {
      reduced_tq[at(t, num_q, q)] = instance.strategy().probability(q) * d;
    }
    bool any = false;
    for (int u = 0; u < num_u; ++u) any = any || fits(t, u);
    if (any) capacity_ranks.push_back(t);
  }
  std::vector<std::pair<int, int>> members;
  for (int q = 0; q < num_q; ++q) {
    for (const int u : instance.system().quorum(q)) members.emplace_back(q, u);
  }
  const int first_capacity = num_u + num_q;
  const int first_prefix =
      first_capacity + static_cast<int>(capacity_ranks.size());
  double bound = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int row = rows[i];
    const double y_i = std::isfinite(y[i]) ? y[i] : 0.0;
    if (row < num_u) {  // (10) sum_t x_tu = 1
      bound += y_i;
      for (int t = 0; t < n; ++t) {
        if (fits(t, row)) reduced_tu[at(t, num_u, row)] -= y_i;
      }
    } else if (row < first_capacity) {  // (11) sum_t x_tQ = 1
      bound += y_i;
      for (int t = 0; t < n; ++t) reduced_tq[at(t, num_q, row - num_u)] -= y_i;
    } else if (row < first_prefix) {  // (12) sum_u load_u x_tu <= cap(v_t)
      const double dual = std::min(y_i, 0.0);
      const int t =
          capacity_ranks[static_cast<std::size_t>(row - first_capacity)];
      bound += instance.capacity(order[static_cast<std::size_t>(t)]) * dual;
      for (int u = 0; u < num_u; ++u) {
        if (fits(t, u)) {
          reduced_tu[at(t, num_u, u)] -=
              loads[static_cast<std::size_t>(u)] * dual;
        }
      }
    } else {  // (14) sum_{s<=t} (x_sQ - x_su) <= 0
      const double dual = std::min(y_i, 0.0);
      const auto [q, u] =
          members[static_cast<std::size_t>((row - first_prefix) / (n - 1))];
      const int t = (row - first_prefix) % (n - 1);
      for (int s = 0; s <= t; ++s) {
        reduced_tq[at(s, num_q, q)] -= dual;
        if (fits(s, u)) reduced_tu[at(s, num_u, u)] += dual;
      }
    }
  }
  for (int t = 0; t < n; ++t) {
    for (int u = 0; u < num_u; ++u) {
      if (fits(t, u)) bound += std::min(reduced_tu[at(t, num_u, u)], 0.0);
    }
    for (int q = 0; q < num_q; ++q) {
      bound += std::min(reduced_tq[at(t, num_q, q)], 0.0);
    }
  }
  return bound;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The streamed bound is lp::dual_bound on the named-row model bit for bit,
// and both agree with the paper's rows read independently, on random
// instances (uniform, heterogeneous and ample capacities; grid(2), grid(3)
// and majority(5,3); uniform and skewed strategies), on empty, partial,
// full and solver-named row sets, and on solver duals, random duals of
// either sign on every row, and duals with +-inf and NaN entries.
TEST(SsqppLp, StreamedBoundEqualsModelBound) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dual_dist(-2.0, 2.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const quorum::QuorumSystem systems[] = {quorum::grid(2), quorum::grid(3),
                                          quorum::majority(5, 3)};
  int compared = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 6 + trial % 9;
    const quorum::QuorumSystem& system = systems[trial % 3];
    std::vector<double> weights;
    for (int q = 0; q < system.num_quorums(); ++q) {
      weights.push_back(trial % 2 == 0 ? 1.0 : 0.5 + unit(rng));
    }
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (double& weight : weights) weight /= total;
    const quorum::AccessStrategy strategy(system, weights);
    const std::vector<double> loads = quorum::element_loads(system, strategy);
    const double max_load = *std::max_element(loads.begin(), loads.end());
    const double total_load = std::accumulate(loads.begin(), loads.end(), 0.0);
    std::vector<double> caps;
    for (int v = 0; v < n; ++v) {
      switch (trial % 4) {
        case 0: caps.push_back(1.5 * max_load); break;  // uniform
        case 1:  // heterogeneous; some nodes hold no element
          caps.push_back((v % 3 == 0 ? 0.5 : 1.0 + 0.25 * (v % 4)) * max_load);
          break;
        case 2: caps.push_back(total_load + 1.0); break;  // no (12) binds
        default: caps.push_back(0.5 * max_load); break;   // fits nowhere
      }
    }
    const graph::Metric metric =
        graph::Metric::from_graph(graph::random_geometric(n, 0.5, rng).graph);
    const SsqppInstance instance(metric, caps, system, strategy,
                                 static_cast<int>(rng() % n));
    // The full model's row count, from the rows' definition.
    int capacity_rows = 0;
    for (int v = 0; v < n; ++v) {
      if (std::ranges::any_of(loads, [&](double load) {
            return load <= caps[static_cast<std::size_t>(v)] + 1e-12;
          })) {
        ++capacity_rows;
      }
    }
    int members = 0;
    for (int q = 0; q < system.num_quorums(); ++q) {
      members += static_cast<int>(system.quorum(q).size());
    }
    const int num_rows = system.universe_size() + system.num_quorums() +
                         capacity_rows + members * (n - 1);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " rows "
                                    << num_rows);

    std::vector<std::pair<std::vector<int>, std::vector<double>>> cases;
    std::vector<int> full(static_cast<std::size_t>(num_rows));
    std::iota(full.begin(), full.end(), 0);
    std::vector<int> partial;
    for (const int row : full) {
      if (unit(rng) < 0.3) partial.push_back(row);
    }
    const FractionalSsqpp solved = solve_ssqpp_lp(instance);
    if (solved.status == lp::SolveStatus::kOptimal) {
      cases.emplace_back(solved.duals.rows, solved.duals.values);
    }
    for (const std::vector<int>& rows :
         {std::vector<int>{}, partial, full, solved.duals.rows}) {
      std::vector<double> random;
      std::vector<double> non_finite;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        random.push_back(dual_dist(rng));
        constexpr double kInf = std::numeric_limits<double>::infinity();
        const double odd[] = {kInf, -kInf,
                              std::numeric_limits<double>::quiet_NaN()};
        non_finite.push_back(i % 4 == 0 ? odd[i / 4 % 3] : dual_dist(rng));
      }
      cases.emplace_back(rows, random);
      cases.emplace_back(rows, non_finite);
    }

    for (const auto& [rows, y] : cases) {
      const std::optional<SsqppBound> streamed =
          ssqpp_dual_bound(instance, rows, y);
      const std::optional<SsqppLp> model = build_ssqpp_lp(instance, rows);
      ASSERT_TRUE(streamed.has_value());
      ASSERT_TRUE(model.has_value());
      ASSERT_EQ(streamed->element_fits, model->element_fits);
      EXPECT_EQ(streamed->element_fits, trial % 4 != 3);
      if (!streamed->element_fits) continue;
      const double expected = lp::dual_bound(model->model, y);
      EXPECT_TRUE(same_bits(streamed->value, expected))
          << streamed->value << " vs " << expected;
      const double reference = reference_ssqpp_bound(instance, rows, y);
      EXPECT_NEAR(streamed->value, reference,
                  1e-9 * std::max(1.0, std::abs(reference)));
      ++compared;
    }
    // Bad names are refused as build_ssqpp_lp refuses them.
    for (const std::vector<int>& bad :
         {std::vector<int>{1, 1}, std::vector<int>{num_rows}}) {
      EXPECT_FALSE(build_ssqpp_lp(instance, bad).has_value());
      EXPECT_FALSE(ssqpp_dual_bound(instance, bad,
                                    std::vector<double>(bad.size(), 0.0))
                       .has_value());
    }
  }
  EXPECT_GE(compared, 100);
  EXPECT_THROW(ssqpp_dual_bound(line_grid_instance(2, 6, 1.0), {0, 1}, {0.0}),
               std::invalid_argument);
}

// --- Filtering (Sec 3.3.1) ---------------------------------------------------

TEST(Filtering, RejectsBadAlpha) {
  const SsqppInstance instance = line_grid_instance(2, 5, 1.0);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  EXPECT_THROW(filter_fractional(f, 1.0), std::invalid_argument);
  EXPECT_THROW(filter_fractional(f, 0.5), std::invalid_argument);
}

class FilteringProperty : public ::testing::TestWithParam<double> {};

TEST_P(FilteringProperty, InvariantsHold) {
  const double alpha = GetParam();
  const SsqppInstance instance = line_grid_instance(2, 7, 0.8);
  const FractionalSsqpp f = solve_ssqpp_lp(instance);
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  const FractionalSsqpp filtered = filter_fractional(f, alpha);

  for (int u = 0; u < f.universe_size; ++u) {
    double mass = 0.0;
    for (int t = 0; t < f.num_nodes; ++t) {
      const double x = filtered.xu(t, u);
      EXPECT_GE(x, -1e-12);
      EXPECT_LE(x, alpha * f.xu(t, u) + 1e-9);  // x~ <= alpha x
      mass += x;
    }
    EXPECT_NEAR(mass, 1.0, 1e-6);  // (10) preserved exactly
  }
  for (int q = 0; q < f.num_quorums; ++q) {
    double mass = 0.0;
    for (int t = 0; t < f.num_nodes; ++t) mass += filtered.xq(t, q);
    EXPECT_NEAR(mass, 1.0, 1e-6);  // (11) preserved
  }
  // (14) still holds after filtering (paper argument).
  for (int q = 0; q < f.num_quorums; ++q) {
    for (int u : instance.system().quorum(q)) {
      double prefix_q = 0.0, prefix_u = 0.0;
      for (int t = 0; t < f.num_nodes; ++t) {
        prefix_q += filtered.xq(t, q);
        prefix_u += filtered.xu(t, u);
        EXPECT_LE(prefix_q, prefix_u + 1e-6);
      }
    }
  }
  // Claim 3.8 analogue: support confined to d_t <= (alpha/(alpha-1)) D_Q.
  for (int q = 0; q < f.num_quorums; ++q) {
    const double dq = f.quorum_distance(q);
    for (int t = 0; t < f.num_nodes; ++t) {
      if (filtered.xq(t, q) > 1e-9) {
        EXPECT_LE(f.sorted_distance[static_cast<std::size_t>(t)],
                  alpha / (alpha - 1.0) * dq + 1e-6);
      }
    }
  }
  // Objective does not grow.
  EXPECT_LE(filtered.objective, f.objective + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Alphas, FilteringProperty,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0));

}  // namespace
}  // namespace qp::core
