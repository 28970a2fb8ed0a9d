#include "core/multi_strategy.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/evaluators.hpp"
#include "graph/generators.hpp"
#include "quorum/constructions.hpp"

namespace qp::core {
namespace {

PerClientStrategies random_strategies(const quorum::QuorumSystem& system,
                                      int clients, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(0.05, 1.0);
  PerClientStrategies out;
  for (int v = 0; v < clients; ++v) {
    std::vector<double> p(static_cast<std::size_t>(system.num_quorums()));
    double total = 0.0;
    for (double& x : p) {
      x = dist(rng);
      total += x;
    }
    for (double& x : p) x /= total;
    out.emplace_back(system, std::move(p));
  }
  return out;
}

TEST(MultiStrategy, ValidatesArity) {
  const graph::Metric metric = graph::Metric::uniform(4);
  const quorum::QuorumSystem system = quorum::majority(3);
  std::mt19937_64 rng(1);
  PerClientStrategies wrong = random_strategies(system, 3, rng);  // 3 != 4
  const Placement f = {0, 1, 2};
  EXPECT_THROW(
      average_max_delay_multi(metric, system, wrong, {1, 1, 1, 1}, f),
      std::invalid_argument);
}

TEST(MultiStrategy, IdenticalStrategiesReduceToSingleStrategy) {
  std::mt19937_64 rng(3);
  const graph::Metric metric =
      graph::Metric::from_graph(graph::erdos_renyi(6, 0.5, rng, 1.0, 4.0));
  const quorum::QuorumSystem system = quorum::majority(3);
  const quorum::AccessStrategy uniform =
      quorum::AccessStrategy::uniform(system);
  PerClientStrategies same(6, uniform);
  const std::vector<double> weights(6, 1.0);
  const Placement f = {0, 2, 4};

  QppInstance instance(metric, std::vector<double>(6, 10.0), system, uniform);
  EXPECT_NEAR(average_max_delay_multi(metric, system, same, weights, f),
              average_max_delay(instance, f), 1e-12);
  EXPECT_EQ(best_relay_node_multi(metric, system, same, f),
            best_relay_node(instance, f));
  EXPECT_NEAR(relay_delay_multi(metric, system, same, weights, f, 2),
              relay_delay(instance, f, 2), 1e-12);
}

TEST(MultiStrategy, AverageStrategyIsWeightedMean) {
  const quorum::QuorumSystem system = quorum::majority(3);  // 3 quorums
  PerClientStrategies strategies;
  strategies.emplace_back(system, std::vector<double>{1.0, 0.0, 0.0});
  strategies.emplace_back(system, std::vector<double>{0.0, 1.0, 0.0});
  const quorum::AccessStrategy mean =
      average_strategy(system, strategies, {3.0, 1.0});
  EXPECT_NEAR(mean.probability(0), 0.75, 1e-12);
  EXPECT_NEAR(mean.probability(1), 0.25, 1e-12);
  EXPECT_NEAR(mean.probability(2), 0.0, 1e-12);
}

class MultiStrategyLemma : public ::testing::TestWithParam<int> {};

TEST_P(MultiStrategyLemma, GeneralizedFactorFiveHolds) {
  // Paper Sec 6: Lemma 3.1 survives per-client strategies.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 419 + 5);
  const graph::Metric metric =
      graph::Metric::from_graph(graph::erdos_renyi(10, 0.4, rng, 1.0, 6.0));
  const quorum::QuorumSystem system = quorum::grid(2);
  const PerClientStrategies strategies = random_strategies(system, 10, rng);
  const std::vector<double> weights(10, 1.0);
  std::uniform_int_distribution<int> pick(0, 9);
  for (int trial = 0; trial < 5; ++trial) {
    Placement f(4);
    for (int& v : f) v = pick(rng);
    const int v0 = best_relay_node_multi(metric, system, strategies, f);
    EXPECT_LE(
        relay_delay_multi(metric, system, strategies, weights, f, v0),
        5.0 * average_max_delay_multi(metric, system, strategies, weights, f) +
            1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiStrategyLemma, ::testing::Range(0, 10));

TEST(MultiStrategySolver, ProducesBoundedPlacement) {
  std::mt19937_64 rng(17);
  const graph::Metric metric =
      graph::Metric::from_graph(graph::random_tree(8, rng, 1.0, 5.0));
  const quorum::QuorumSystem system = quorum::majority(3);
  const PerClientStrategies strategies = random_strategies(system, 8, rng);
  const std::vector<double> weights(8, 1.0);
  const std::vector<double> caps(8, 1.0);

  const auto result =
      solve_qpp_multi(metric, caps, system, strategies, weights);
  ASSERT_TRUE(result.has_value());
  EXPECT_LE(result->load_violation, 3.0 + 1e-9);  // alpha = 2 default
  EXPECT_NEAR(result->average_delay,
              average_max_delay_multi(metric, system, strategies, weights,
                                      result->placement),
              1e-12);
}

TEST(MultiStrategySolver, WeightsSteerThePlacement) {
  // All weight on a far-end client on a long path; the chosen placement
  // should serve that client much better than the reverse weighting.
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(10, 2.0));
  const quorum::QuorumSystem system = quorum::majority(3);
  std::mt19937_64 rng(23);
  const PerClientStrategies strategies(
      10, quorum::AccessStrategy::uniform(system));
  std::vector<double> at_end(10, 1e-6);
  at_end[9] = 1.0;
  std::vector<double> at_start(10, 1e-6);
  at_start[0] = 1.0;
  const std::vector<double> caps(10, 0.7);

  const auto end_result =
      solve_qpp_multi(metric, caps, system, strategies, at_end);
  const auto start_result =
      solve_qpp_multi(metric, caps, system, strategies, at_start);
  ASSERT_TRUE(end_result.has_value());
  ASSERT_TRUE(start_result.has_value());
  const double end_delay_for_9 = expected_max_delay(
      metric, system, strategies[9], end_result->placement, 9);
  const double start_delay_for_9 = expected_max_delay(
      metric, system, strategies[9], start_result->placement, 9);
  EXPECT_LT(end_delay_for_9, start_delay_for_9 + 1e-9);
}

TEST(MultiStrategySolver, MaxCandidatesRestrictsToMedianOrder) {
  // All weight on the far end of a path pulls the best relay there, but
  // with max_candidates = 2 only the 1-median nodes 4 and 5 are tried.
  const graph::Metric metric = graph::Metric::from_graph(graph::path_graph(10));
  const quorum::QuorumSystem system = quorum::majority(3);
  const PerClientStrategies strategies(
      10, quorum::AccessStrategy::uniform(system));
  std::vector<double> weights(10, 0.0);
  weights[9] = 1.0;
  QppSolveOptions options;
  options.max_candidates = 2;

  const auto result = solve_qpp_multi(metric, std::vector<double>(10, 1.0),
                                      system, strategies, weights, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->chosen_source == 4 || result->chosen_source == 5)
      << "source " << result->chosen_source;
}

}  // namespace
}  // namespace qp::core
