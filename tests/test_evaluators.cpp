#include "core/evaluators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "quorum/constructions.hpp"

namespace qp::core {
namespace {

using graph::Metric;
using quorum::AccessStrategy;
using quorum::QuorumSystem;

/// Line metric 0-1-2-3 with unit spacing; two quorums {0,1} and {1,2} over
/// a 3-element universe.
struct Fixture {
  Metric metric = Metric::line({0.0, 1.0, 2.0, 3.0});
  QuorumSystem system{3, {{0, 1}, {1, 2}}};
  AccessStrategy strategy{system, {0.5, 0.5}};
};

TEST(MaxDelay, TakesFarthestElement) {
  const Fixture f;
  // u0 -> node3, u1 -> node0, u2 -> node1.
  const Placement placement = {3, 0, 1};
  EXPECT_DOUBLE_EQ(max_delay(f.metric, f.system.quorum(0), placement, 0), 3.0);
  EXPECT_DOUBLE_EQ(max_delay(f.metric, f.system.quorum(1), placement, 0), 1.0);
  EXPECT_DOUBLE_EQ(max_delay(f.metric, f.system.quorum(0), placement, 3), 3.0);
}

TEST(TotalDelayEval, SumsDistances) {
  const Fixture f;
  const Placement placement = {3, 0, 1};
  EXPECT_DOUBLE_EQ(total_delay(f.metric, f.system.quorum(0), placement, 0),
                   3.0 + 0.0);
  EXPECT_DOUBLE_EQ(total_delay(f.metric, f.system.quorum(1), placement, 2),
                   2.0 + 1.0);
}

TEST(ExpectedDelays, WeightedByStrategy) {
  const Fixture f;
  const Placement placement = {3, 0, 1};
  EXPECT_DOUBLE_EQ(
      expected_max_delay(f.metric, f.system, f.strategy, placement, 0),
      0.5 * 3.0 + 0.5 * 1.0);
  EXPECT_DOUBLE_EQ(
      expected_total_delay(f.metric, f.system, f.strategy, placement, 0),
      0.5 * 3.0 + 0.5 * 1.0);
}

TEST(AverageDelays, UniformClients) {
  const Fixture f;
  QppInstance instance(f.metric, {1, 1, 1, 1}, f.system, f.strategy);
  const Placement placement = {0, 1, 2};
  double expected = 0.0;
  for (int v = 0; v < 4; ++v) {
    expected +=
        0.25 * expected_max_delay(f.metric, f.system, f.strategy, placement, v);
  }
  EXPECT_NEAR(average_max_delay(instance, placement), expected, 1e-12);
}

TEST(AverageDelays, ClientWeightsChangeObjective) {
  const Fixture f;
  // All weight on client 3.
  QppInstance weighted(f.metric, {1, 1, 1, 1}, f.system, f.strategy,
                       {0.0, 0.0, 0.0, 1.0});
  const Placement placement = {0, 1, 2};
  EXPECT_NEAR(
      average_max_delay(weighted, placement),
      expected_max_delay(f.metric, f.system, f.strategy, placement, 3), 1e-12);
}

TEST(AverageDelays, RejectsInvalidPlacement) {
  const Fixture f;
  QppInstance instance(f.metric, {1, 1, 1, 1}, f.system, f.strategy);
  EXPECT_THROW(average_max_delay(instance, {0, 1}), std::invalid_argument);
  EXPECT_THROW(average_max_delay(instance, {0, 1, 9}), std::invalid_argument);
}

TEST(SourceDelay, MatchesExpectedMaxDelayAtSource) {
  const Fixture f;
  SsqppInstance instance(f.metric, {1, 1, 1, 1}, f.system, f.strategy, 2);
  const Placement placement = {0, 1, 3};
  EXPECT_DOUBLE_EQ(
      source_expected_max_delay(instance, placement),
      expected_max_delay(f.metric, f.system, f.strategy, placement, 2));
}

TEST(NodeLoads, AggregatesByPlacement) {
  const std::vector<double> loads = {0.5, 0.3, 0.2};
  const Placement placement = {1, 1, 3};
  const std::vector<double> node = node_loads(loads, placement, 4);
  EXPECT_DOUBLE_EQ(node[0], 0.0);
  EXPECT_DOUBLE_EQ(node[1], 0.8);
  EXPECT_DOUBLE_EQ(node[3], 0.2);
}

TEST(CapacityViolation, RatioAndFeasibility) {
  const std::vector<double> loads = {0.5, 0.5};
  const std::vector<double> caps = {0.4, 1.0};
  EXPECT_DOUBLE_EQ(max_capacity_violation(loads, caps, {0, 1}), 1.25);
  EXPECT_FALSE(is_capacity_feasible(loads, caps, {0, 1}));
  EXPECT_TRUE(is_capacity_feasible(loads, caps, {1, 1}));
}

TEST(CapacityViolation, ZeroCapacityWithLoadIsInfinite) {
  const std::vector<double> loads = {0.5};
  const std::vector<double> caps = {0.0, 1.0};
  EXPECT_TRUE(std::isinf(max_capacity_violation(loads, caps, {0})));
}

TEST(RelayDelay, DecomposesPerEquation8) {
  const Fixture f;
  QppInstance instance(f.metric, {1, 1, 1, 1}, f.system, f.strategy);
  const Placement placement = {0, 1, 2};
  const int relay = 1;
  double avg_dist = 0.0;
  for (int v = 0; v < 4; ++v) avg_dist += 0.25 * f.metric(v, relay);
  EXPECT_NEAR(relay_delay(instance, placement, relay),
              avg_dist + expected_max_delay(f.metric, f.system, f.strategy,
                                            placement, relay),
              1e-12);
}

TEST(BestRelayNode, MinimizesExpectedDelay) {
  const Fixture f;
  QppInstance instance(f.metric, {1, 1, 1, 1}, f.system, f.strategy);
  const Placement placement = {0, 1, 2};
  const int v0 = best_relay_node(instance, placement);
  const double delay_v0 =
      expected_max_delay(f.metric, f.system, f.strategy, placement, v0);
  for (int v = 0; v < 4; ++v) {
    EXPECT_LE(delay_v0, expected_max_delay(f.metric, f.system, f.strategy,
                                           placement, v) +
                            1e-12);
  }
}

// --- The client-blocked kernel against the per-client definition ---------

enum class Kind { kExpectedMax, kExpectedTotal, kClosest };

/// Delta_f(v), Gamma_f(v) or min_Q delta_f(v, Q) computed one client at a
/// time, as a loop over v's quorums reading d(v, f(u)) from v's own row.
double reference_delay(const QppInstance& instance,
                       const Placement& placement, int client, Kind kind) {
  double value = kind == Kind::kClosest
                     ? std::numeric_limits<double>::infinity()
                     : 0.0;
  for (int qi = 0; qi < instance.system().num_quorums(); ++qi) {
    double delay = 0.0;
    for (int u : instance.system().quorum(qi)) {
      const double d =
          instance.metric()(client, placement[static_cast<std::size_t>(u)]);
      delay = kind == Kind::kExpectedTotal ? delay + d : std::max(delay, d);
    }
    value = kind == Kind::kClosest
                ? std::min(value, delay)
                : value + instance.strategy().probability(qi) * delay;
  }
  return value;
}

/// Weighted average summed client by client within each chunk of
/// plan_chunks(n, kReductionGrain), the chunk sums folded in order.
double reference_average(const QppInstance& instance,
                         const Placement& placement, Kind kind) {
  const auto n = static_cast<std::size_t>(instance.num_nodes());
  const exec::ChunkPlan plan = exec::plan_chunks(n, exec::kReductionGrain);
  double average = 0.0;
  for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
    double sum = 0.0;
    for (std::size_t v = plan.begin(chunk); v < plan.end(chunk); ++v) {
      const double weight = instance.client_weights()[v];
      if (weight == 0.0) continue;
      sum += weight * reference_delay(instance, placement,
                                      static_cast<int>(v), kind);
    }
    average = chunk == 0 ? sum : average + sum;
  }
  return average;
}

::testing::AssertionResult same_bits(double actual, double expected) {
  if (std::memcmp(&actual, &expected, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << ::testing::PrintToString(actual) << " and "
         << ::testing::PrintToString(expected) << " differ in their bits";
}

/// Euclidean distances of random points in the unit square.
Metric random_points_metric(int n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coordinate(0.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = coordinate(rng);
    y[static_cast<std::size_t>(i)] = coordinate(rng);
  }
  const auto size = static_cast<std::size_t>(n);
  std::vector<double> d(size * size, 0.0);
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = i + 1; j < size; ++j) {
      d[i * size + j] = std::hypot(x[i] - x[j], y[i] - y[j]);
      d[j * size + i] = d[i * size + j];
    }
  }
  return Metric(n, std::move(d));
}

AccessStrategy random_strategy(const QuorumSystem& system,
                               std::mt19937_64& rng) {
  std::uniform_real_distribution<double> mass(0.05, 1.0);
  std::vector<double> p(static_cast<std::size_t>(system.num_quorums()));
  double total = 0.0;
  for (double& x : p) total += (x = mass(rng));
  for (double& x : p) x /= total;
  return AccessStrategy(system, std::move(p));
}

/// Checks the three averages (at 1 and 8 threads) and every client's
/// delays against the reference, bit for bit.
void expect_kernel_matches_reference(const QppInstance& instance,
                                     const Placement& placement) {
  const double max_expected =
      reference_average(instance, placement, Kind::kExpectedMax);
  const double total_expected =
      reference_average(instance, placement, Kind::kExpectedTotal);
  const double closest_expected =
      reference_average(instance, placement, Kind::kClosest);
  for (int threads : {1, 8}) {
    exec::set_num_threads(threads);
    EXPECT_TRUE(
        same_bits(average_max_delay(instance, placement), max_expected))
        << threads << " threads";
    EXPECT_TRUE(
        same_bits(average_total_delay(instance, placement), total_expected))
        << threads << " threads";
    EXPECT_TRUE(same_bits(average_closest_quorum_delay(instance, placement),
                          closest_expected))
        << threads << " threads";
  }
  exec::set_num_threads(0);
  const Metric& metric = instance.metric();
  for (int v = 0; v < instance.num_nodes(); ++v) {
    EXPECT_TRUE(same_bits(
        expected_max_delay(metric, instance.system(), instance.strategy(),
                           placement, v),
        reference_delay(instance, placement, v, Kind::kExpectedMax)));
    EXPECT_TRUE(same_bits(
        expected_total_delay(metric, instance.system(), instance.strategy(),
                             placement, v),
        reference_delay(instance, placement, v, Kind::kExpectedTotal)));
    EXPECT_TRUE(same_bits(
        closest_quorum_delay(metric, instance.system(), placement, v),
        reference_delay(instance, placement, v, Kind::kClosest)));
  }
}

class EvaluatorKernel : public ::testing::TestWithParam<int> {};

TEST_P(EvaluatorKernel, BitIdenticalToPerClientReference) {
  const int n = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 7919 + 1);
  std::vector<QuorumSystem> systems = {quorum::grid(3), quorum::grid(5),
                                       quorum::majority(5, 3),
                                       quorum::sampled_majority(9, 5, 12, rng)};
  for (const QuorumSystem& system : systems) {
    const AccessStrategy strategy = random_strategy(system, rng);
    // Every third client weighs nothing; the rest weigh unevenly.
    std::uniform_real_distribution<double> mass(0.1, 3.0);
    std::vector<double> weights(static_cast<std::size_t>(n));
    for (std::size_t v = 0; v < weights.size(); ++v) {
      weights[v] = v % 3 == 2 ? 0.0 : mass(rng);
    }
    QppInstance instance(random_points_metric(n, rng),
                         std::vector<double>(static_cast<std::size_t>(n), 1.0),
                         system, strategy, std::move(weights));
    // Random nodes, and element 1 on element 0's node.
    std::uniform_int_distribution<int> node(0, n - 1);
    Placement placement(static_cast<std::size_t>(system.universe_size()));
    for (int& v : placement) v = node(rng);
    placement[1] = placement[0];
    SCOPED_TRACE(::testing::Message()
                 << "n = " << n << ", " << system.num_quorums()
                 << " quorums");
    expect_kernel_matches_reference(instance, placement);
  }
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, EvaluatorKernel,
                         ::testing::Values(1, 2, 63, 64, 65, 130, 513));

TEST(EvaluatorKernel, UniformWeightsOnAShortestPathMetric) {
  std::mt19937_64 rng(5);
  const QuorumSystem system = quorum::grid(4);
  const QppInstance instance(
      Metric::from_graph(graph::waxman(200, 0.9, 0.4, rng).graph),
      std::vector<double>(200, 1.0), system, AccessStrategy::uniform(system));
  Placement placement(16);
  for (std::size_t u = 0; u < placement.size(); ++u) {
    placement[u] = static_cast<int>((u * 37) % 200);
  }
  expect_kernel_matches_reference(instance, placement);
}

}  // namespace
}  // namespace qp::core
