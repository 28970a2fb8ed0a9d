#include "core/specialized.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "core/evaluators.hpp"
#include "core/exact.hpp"
#include "core/qpp_solver.hpp"
#include "graph/generators.hpp"
#include "quorum/constructions.hpp"

namespace qp::core {
namespace {

QppInstance grid_instance(const graph::Graph& g, int k, double cap_multiple) {
  const quorum::QuorumSystem system = quorum::grid(k);
  const double load = static_cast<double>(2 * k - 1) / (k * k);
  return QppInstance(
      graph::Metric::from_graph(g),
      std::vector<double>(static_cast<std::size_t>(g.num_nodes()),
                          cap_multiple * load),
      system, quorum::AccessStrategy::uniform(system));
}

QppInstance majority_instance(const graph::Graph& g, int n, int t,
                              double cap_multiple) {
  const quorum::QuorumSystem system = quorum::majority(n, t);
  return QppInstance(
      graph::Metric::from_graph(g),
      std::vector<double>(static_cast<std::size_t>(g.num_nodes()),
                          cap_multiple * t / n),
      system, quorum::AccessStrategy::uniform(system));
}

TEST(SolveQppGrid, ValidatesSystem) {
  const quorum::QuorumSystem wrong = quorum::star(4);
  QppInstance instance(graph::Metric::from_graph(graph::path_graph(6)),
                       std::vector<double>(6, 1.0), wrong,
                       quorum::AccessStrategy::uniform(wrong));
  EXPECT_THROW(solve_qpp_grid(instance, 2), std::invalid_argument);
}

TEST(SolveQppGrid, NulloptWithoutSlots) {
  const QppInstance instance = grid_instance(graph::path_graph(3), 2, 1.0);
  EXPECT_FALSE(solve_qpp_grid(instance, 2).has_value());
}

TEST(SolveQppGrid, CapacityRespectedExactly) {
  const QppInstance instance = grid_instance(graph::cycle_graph(7), 2, 1.0);
  const auto result = solve_qpp_grid(instance, 2);
  ASSERT_TRUE(result.has_value());
  // Thm 1.3: NO capacity blow-up, unlike Thm 1.2.
  EXPECT_TRUE(is_capacity_feasible(instance.element_loads(),
                                   instance.capacities(),
                                   result->placement));
}

TEST(SolveQppGrid, WithinFactorFiveOfExact) {
  std::mt19937_64 rng(3);
  const QppInstance instance =
      grid_instance(graph::erdos_renyi(7, 0.5, rng, 1.0, 6.0), 2, 1.2);
  const auto result = solve_qpp_grid(instance, 2);
  ASSERT_TRUE(result.has_value());
  const auto exact = exact_qpp_max_delay(instance);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(result->average_delay, 5.0 * exact->delay + 1e-9);
  EXPECT_GE(result->average_delay, exact->delay - 1e-9);
}

TEST(SolveQppMajority, CapacityRespectedAndFactorFive) {
  std::mt19937_64 rng(7);
  const QppInstance instance =
      majority_instance(graph::random_tree(8, rng, 1.0, 5.0), 5, 3, 1.0);
  const auto result = solve_qpp_majority(instance, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(is_capacity_feasible(instance.element_loads(),
                                   instance.capacities(),
                                   result->placement));
  const auto exact = exact_qpp_max_delay(instance);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(result->average_delay, 5.0 * exact->delay + 1e-9);
}

TEST(SolveQppMajority, SourceDelayMatchesEvaluator) {
  const QppInstance instance =
      majority_instance(graph::path_graph(8, 2.0), 5, 3, 1.0);
  const auto result = solve_qpp_majority(instance, 3);
  ASSERT_TRUE(result.has_value());
  const SsqppInstance view =
      single_source_view(instance, result->chosen_source);
  EXPECT_NEAR(result->source_delay,
              source_expected_max_delay(view, result->placement), 1e-12);
}

class SpecializedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpecializedSweep, Theorem13AcrossTopologies) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 661 + 13);
  const graph::Graph g = (GetParam() % 2 == 0)
                             ? graph::erdos_renyi(7, 0.5, rng, 1.0, 8.0)
                             : graph::random_geometric(7, 0.6, rng).graph;
  const QppInstance instance = grid_instance(g, 2, 1.5);
  const auto result = solve_qpp_grid(instance, 2);
  ASSERT_TRUE(result.has_value());
  const auto exact = exact_qpp_max_delay(instance);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(result->average_delay, 5.0 * exact->delay + 1e-9);
  EXPECT_TRUE(is_capacity_feasible(instance.element_loads(),
                                   instance.capacities(),
                                   result->placement));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecializedSweep, ::testing::Range(0, 8));


// The Thm 1.3 sweep on Waxman graphs, pinned: the winning source, its
// placement and the bits of Avg_v Delta_f(v). Two-copy capacities give the
// grid layout repeated nodes among its nearest slots.
TEST(SolveQppGrid, WaxmanSweepIsPinned) {
  std::mt19937_64 rng(11);
  const QppInstance instance =
      grid_instance(graph::waxman(512, 0.9, 0.4, rng).graph, 5, 2.0);
  const auto result = solve_qpp_grid(instance, 5);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->chosen_source, 157);
  EXPECT_EQ(result->placement,
            (Placement{352, 414, 151, 21, 370, 414, 151, 405, 21,
                       225, 405, 306, 306, 364, 225, 364, 386, 386,
                       370, 214, 214, 292, 292, 157, 157}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result->average_delay),
            0x3fdc29ade57daf04u);
}

TEST(SolveQppMajority, WaxmanSweepIsPinned) {
  std::mt19937_64 rng(12);
  const QppInstance instance =
      majority_instance(graph::waxman(64, 0.9, 0.4, rng).graph, 5, 3, 1.0);
  const auto result = solve_qpp_majority(instance, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->chosen_source, 11);
  EXPECT_EQ(result->placement, (Placement{11, 56, 32, 30, 54}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result->average_delay),
            0x3fdc42254160015au);
}

}  // namespace
}  // namespace qp::core
