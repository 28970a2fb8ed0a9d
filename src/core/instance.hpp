#pragma once

/// \file instance.hpp
/// Problem instances for the paper's two placement problems:
///  - QppInstance: the Quorum Placement Problem (paper Problem 1.1), where
///    every network node is a client;
///  - SsqppInstance: the Single-Source QPP (paper Problem 3.2), where one
///    designated node v0 issues all accesses.
/// A placement is the map f : U -> V (paper Sec 1.2), represented as a
/// vector indexed by element id.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/contracts.hpp"
#include "graph/metric.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

/// f : U -> V; placement[u] is the node hosting element u.
using Placement = std::vector<int>;

/// Paper Problem 1.1. Client weights generalize the uniform-rate assumption
/// (paper Sec 6): objective is the weighted average of per-client delays.
class QppInstance {
 public:
  /// Uniform client rates.
  QppInstance(graph::Metric metric, std::vector<double> capacities,
              quorum::QuorumSystem system, quorum::AccessStrategy strategy);

  /// Arbitrary non-negative client rates (normalized internally).
  QppInstance(graph::Metric metric, std::vector<double> capacities,
              quorum::QuorumSystem system, quorum::AccessStrategy strategy,
              std::vector<double> client_weights);

  const graph::Metric& metric() const { return *metric_; }
  /// The metric, shared (immutable) with every single_source_view.
  const std::shared_ptr<const graph::Metric>& shared_metric() const {
    return metric_;
  }
  int num_nodes() const { return metric_->num_points(); }
  /// Hot path (solver inner loops): unchecked indexing, bounds guarded by
  /// the contract in Debug builds.
  double capacity(int v) const {
    QP_REQUIRE(v >= 0 && v < num_nodes(), "node id out of range");
    return capacities_[static_cast<std::size_t>(v)];
  }
  const std::vector<double>& capacities() const { return capacities_; }
  const quorum::QuorumSystem& system() const { return system_; }
  const quorum::AccessStrategy& strategy() const { return strategy_; }
  /// Normalized client weights (sum to 1).
  const std::vector<double>& client_weights() const { return client_weights_; }
  /// Element loads induced by (system, strategy).
  const std::vector<double>& element_loads() const { return element_loads_; }

 private:
  void validate();

  std::shared_ptr<const graph::Metric> metric_;
  std::vector<double> capacities_;
  quorum::QuorumSystem system_;
  quorum::AccessStrategy strategy_;
  std::vector<double> client_weights_;
  std::vector<double> element_loads_;
};

/// Paper Problem 3.2: only node `source` issues accesses, with strategy p0.
class SsqppInstance {
 public:
  SsqppInstance(graph::Metric metric, std::vector<double> capacities,
                quorum::QuorumSystem system, quorum::AccessStrategy strategy,
                int source);

  /// Over a metric shared with other instances (single_source_view).
  SsqppInstance(std::shared_ptr<const graph::Metric> metric,
                std::vector<double> capacities, quorum::QuorumSystem system,
                quorum::AccessStrategy strategy, int source);

  const graph::Metric& metric() const { return *metric_; }
  int num_nodes() const { return metric_->num_points(); }
  /// Hot path (solver inner loops): unchecked indexing, bounds guarded by
  /// the contract in Debug builds.
  double capacity(int v) const {
    QP_REQUIRE(v >= 0 && v < num_nodes(), "node id out of range");
    return capacities_[static_cast<std::size_t>(v)];
  }
  const std::vector<double>& capacities() const { return capacities_; }
  const quorum::QuorumSystem& system() const { return system_; }
  const quorum::AccessStrategy& strategy() const { return strategy_; }
  int source() const { return source_; }
  const std::vector<double>& element_loads() const { return element_loads_; }

 private:
  std::shared_ptr<const graph::Metric> metric_;
  std::vector<double> capacities_;
  quorum::QuorumSystem system_;
  quorum::AccessStrategy strategy_;
  int source_ = 0;
  std::vector<double> element_loads_;
};

/// True iff placement maps every element to a valid node id.
bool is_valid_placement(const Placement& placement, int universe_size,
                        int num_nodes);

/// Order-sensitive FNV-1a content digest over every defining datum of the
/// instance: the full distance matrix, capacities, quorum membership,
/// access-strategy probabilities and client weights (doubles are hashed by
/// bit pattern, so the digest is exact, not tolerance-based). Two runs over
/// the same instance always agree; observability artifacts (run reports,
/// access logs -- docs/OBSERVABILITY.md) embed it so `qplace analyze` can
/// refuse to compare artifacts from different instances.
std::uint64_t instance_digest(const QppInstance& instance);

/// instance_digest() rendered as 16 lowercase hex digits.
std::string instance_digest_hex(const QppInstance& instance);

}  // namespace qp::core
