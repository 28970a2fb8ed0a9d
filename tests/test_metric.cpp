#include "graph/metric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"

namespace qp::graph {
namespace {

TEST(Metric, ValidatesSymmetry) {
  EXPECT_THROW(Metric(2, {0.0, 1.0, 2.0, 0.0}), std::invalid_argument);
}

TEST(Metric, RejectsOneUlpAsymmetry) {
  const double one = 1.0;
  const double next = std::nextafter(one, 2.0);
  EXPECT_THROW(Metric(2, {0.0, one, next, 0.0}), std::invalid_argument);
}

/// row(i)[j] and row(j)[i] hold the same bits for every pair: the delay
/// evaluators read a placed node's row in place of each client's.
void expect_rows_bit_symmetric(const Metric& m) {
  ASSERT_GT(m.num_points(), 0);
  for (int i = 0; i < m.num_points(); ++i) {
    for (int j = 0; j < m.num_points(); ++j) {
      ASSERT_EQ(std::memcmp(&m.row(i)[j], &m.row(j)[i], sizeof(double)), 0)
          << "d(" << i << ", " << j << ")";
      const double entry = m(i, j);
      ASSERT_EQ(std::memcmp(&m.row(i)[j], &entry, sizeof(double)), 0);
    }
  }
}

TEST(Metric, RowsAreBitSymmetric) {
  std::mt19937_64 rng(17);
  expect_rows_bit_symmetric(
      Metric::from_graph(waxman(96, 0.9, 0.4, rng).graph));
  expect_rows_bit_symmetric(
      Metric::from_graph(random_geometric(96, 0.3, rng).graph));
  expect_rows_bit_symmetric(Metric::uniform(7));
  std::uniform_real_distribution<double> coordinate(-10.0, 10.0);
  std::vector<double> coordinates(40);
  for (double& x : coordinates) x = coordinate(rng);
  expect_rows_bit_symmetric(Metric::line(coordinates));
  // -0.0 == +0.0 passes validation; the matrix keeps one zero.
  expect_rows_bit_symmetric(Metric(2, {-0.0, 0.0, -0.0, 0.0}));
}

TEST(Metric, ValidatesZeroDiagonal) {
  EXPECT_THROW(Metric(2, {1.0, 1.0, 1.0, 0.0}), std::invalid_argument);
}

TEST(Metric, ValidatesShape) {
  EXPECT_THROW(Metric(2, {0.0, 1.0, 1.0}), std::invalid_argument);
}

TEST(Metric, ValidatesNonNegativity) {
  EXPECT_THROW(Metric(2, {0.0, -1.0, -1.0, 0.0}), std::invalid_argument);
}

TEST(Metric, FromGraphMatchesShortestPaths) {
  const Graph g = path_graph(4, 2.0);
  const Metric m = Metric::from_graph(g);
  EXPECT_EQ(m.num_points(), 4);
  EXPECT_DOUBLE_EQ(m(0, 3), 6.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 2.0);
  EXPECT_TRUE(m.satisfies_triangle_inequality());
}

TEST(Metric, FromGraphRejectsDisconnected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(Metric::from_graph(g), std::invalid_argument);
}

TEST(Metric, UniformMetric) {
  const Metric m = Metric::uniform(5);
  EXPECT_DOUBLE_EQ(m(1, 3), 1.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 0.0);
  EXPECT_TRUE(m.satisfies_triangle_inequality());
}

TEST(Metric, LineMetric) {
  const Metric m = Metric::line({0.0, 1.5, 4.0});
  EXPECT_DOUBLE_EQ(m(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 2.5);
  EXPECT_TRUE(m.satisfies_triangle_inequality());
}

TEST(Metric, TriangleInequalityViolationDetected) {
  // d(0,2) = 10 but d(0,1) + d(1,2) = 2: not a metric.
  const Metric m(3, {0.0, 1.0, 10.0,  //
                     1.0, 0.0, 1.0,   //
                     10.0, 1.0, 0.0});
  EXPECT_FALSE(m.satisfies_triangle_inequality());
}

TEST(Metric, Diameter) {
  const Metric m = Metric::line({0.0, 3.0, 7.0});
  EXPECT_DOUBLE_EQ(m.diameter(), 7.0);
}

TEST(Metric, NodesByDistanceSortsStably) {
  const Metric m = Metric::line({5.0, 0.0, 2.0, 5.0});
  const std::vector<int> order = m.nodes_by_distance_from(1);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  // Nodes 0 and 3 tie at distance 5; stable sort keeps id order.
  EXPECT_EQ(order[2], 0);
  EXPECT_EQ(order[3], 3);
}

TEST(Metric, NodesByDistanceRejectsBadOrigin) {
  const Metric m = Metric::uniform(3);
  EXPECT_THROW(m.nodes_by_distance_from(3), std::invalid_argument);
}

TEST(Metric, DistanceSumFrom) {
  const Metric m = Metric::line({0.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(m.distance_sum_from(0), 4.0);
  EXPECT_DOUBLE_EQ(m.distance_sum_from(1), 3.0);
}

TEST(Metric, GraphMetricsSatisfyTriangleInequality) {
  std::mt19937_64 rng(17);
  const Metric m = Metric::from_graph(erdos_renyi(20, 0.3, rng, 1.0, 9.0));
  EXPECT_TRUE(m.satisfies_triangle_inequality());
}

}  // namespace
}  // namespace qp::graph
