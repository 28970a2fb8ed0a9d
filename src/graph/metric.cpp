#include "graph/metric.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/shortest_paths.hpp"

namespace qp::graph {

Metric::Metric(int num_points, std::vector<double> distances)
    : num_points_(num_points), distances_(std::move(distances)) {
  if (num_points < 0) {
    throw std::invalid_argument("Metric: num_points must be non-negative");
  }
  const auto n = static_cast<std::size_t>(num_points);
  if (distances_.size() != n * n) {
    throw std::invalid_argument("Metric: matrix size must be n*n");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (distances_[i * n + i] != 0.0) {
      throw std::invalid_argument("Metric: diagonal must be zero");
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double d = distances_[i * n + j];
      if (!(d >= 0.0) || !std::isfinite(d)) {
        throw std::invalid_argument("Metric: distances must be finite, >= 0");
      }
      if (d != distances_[j * n + i]) {
        throw std::invalid_argument("Metric: matrix must be symmetric");
      }
      // -0.0 == +0.0: store one zero so that symmetry holds bit for bit.
      if (d == 0.0) distances_[i * n + j] = 0.0;
    }
  }
}

Metric Metric::from_graph(const Graph& g) {
  if (!g.is_connected()) {
    throw std::invalid_argument("Metric::from_graph: graph is disconnected");
  }
  std::vector<double> d = all_pairs_distances(g);
  // Dijkstra sums path edges in opposite orders for d(i,j) and d(j,i), so
  // the two can differ by rounding; symmetrize before validating.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double sym = std::min(d[i * n + j], d[j * n + i]);
      d[i * n + j] = sym;
      d[j * n + i] = sym;
    }
  }
  return Metric(g.num_nodes(), std::move(d));
}

Metric Metric::uniform(int num_points) {
  const auto n = static_cast<std::size_t>(num_points);
  std::vector<double> d(n * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0.0;
  return Metric(num_points, std::move(d));
}

Metric Metric::line(const std::vector<double>& coordinates) {
  const auto n = coordinates.size();
  std::vector<double> d(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d[i * n + j] = std::abs(coordinates[i] - coordinates[j]);
    }
  }
  return Metric(static_cast<int>(n), std::move(d));
}

bool Metric::satisfies_triangle_inequality(double tolerance) const {
  const int n = num_points_;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        if ((*this)(i, j) > (*this)(i, k) + (*this)(k, j) + tolerance) {
          return false;
        }
      }
    }
  }
  return true;
}

double Metric::diameter() const {
  return distances_.empty()
             ? 0.0
             : *std::max_element(distances_.begin(), distances_.end());
}

std::vector<int> Metric::nodes_by_distance_from(int origin) const {
  if (origin < 0 || origin >= num_points_) {
    throw std::invalid_argument("nodes_by_distance_from: origin out of range");
  }
  std::vector<int> order(static_cast<std::size_t>(num_points_));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return (*this)(origin, a) < (*this)(origin, b);
  });
  return order;
}

double Metric::distance_sum_from(int v) const {
  double total = 0.0;
  for (int j = 0; j < num_points_; ++j) total += (*this)(v, j);
  return total;
}

}  // namespace qp::graph
