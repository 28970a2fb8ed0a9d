#pragma once

/// \file metric.hpp
/// A finite metric space over points {0..n-1}. All placement algorithms in
/// qp::core consume a Metric rather than a Graph, so they work equally for
/// shortest-path metrics, explicit distance matrices, and synthetic metrics
/// (e.g. the Appendix A integrality-gap instance uses a general metric).

#include <vector>

#include "check/contracts.hpp"
#include "graph/graph.hpp"

namespace qp::graph {

/// Dense symmetric distance matrix with zero diagonal.
class Metric {
 public:
  Metric() = default;

  /// Takes a row-major n x n matrix. Validates symmetry, zero diagonal,
  /// non-negativity and finiteness.
  /// \throws std::invalid_argument on malformed input.
  Metric(int num_points, std::vector<double> distances);

  /// Shortest-path metric of a connected graph.
  /// \throws std::invalid_argument if the graph is disconnected.
  static Metric from_graph(const Graph& g);

  /// Uniform metric: d(i,j) = 1 for i != j.
  static Metric uniform(int num_points);

  /// Metric of points on a line at the given coordinates.
  static Metric line(const std::vector<double>& coordinates);

  int num_points() const { return num_points_; }

  /// Hot path (every delay evaluation): unchecked indexing, bounds guarded
  /// by the contract in Debug builds.
  double operator()(int i, int j) const {
    QP_REQUIRE(i >= 0 && i < num_points_ && j >= 0 && j < num_points_,
               "point id out of range");
    return distances_[static_cast<std::size_t>(i) *
                          static_cast<std::size_t>(num_points_) +
                      static_cast<std::size_t>(j)];
  }

  /// Row i of the matrix: row(i)[j] == (*this)(i, j) for j in [0, n). Every
  /// constructor leaves the matrix exactly symmetric, so row(i)[j] is also
  /// d(j, i) bit for bit: a delay evaluator reads a placed node's row across
  /// a contiguous block of clients.
  const double* row(int i) const {
    QP_REQUIRE(i >= 0 && i < num_points_, "point id out of range");
    return distances_.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(num_points_);
  }

  /// True if the triangle inequality holds up to \p tolerance. O(n^3).
  bool satisfies_triangle_inequality(double tolerance = 1e-9) const;

  /// Largest pairwise distance.
  double diameter() const;

  /// Point ids sorted by non-decreasing distance from \p origin
  /// (origin itself first). This is the paper's ordering d_0 <= d_1 <= ...
  /// used by the SSQPP LP (Sec 3.3).
  std::vector<int> nodes_by_distance_from(int origin) const;

  /// Sum of distances from \p v to all points; argmin of this is the
  /// 1-median (used by baselines).
  double distance_sum_from(int v) const;

 private:
  int num_points_ = 0;
  std::vector<double> distances_;
};

}  // namespace qp::graph
