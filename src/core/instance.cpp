#include "core/instance.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace qp::core {

namespace {

void check_capacities(const std::vector<double>& capacities, int num_nodes) {
  if (static_cast<int>(capacities.size()) != num_nodes) {
    throw std::invalid_argument("instance: one capacity per node required");
  }
  for (double c : capacities) {
    if (!(c >= 0.0) || !std::isfinite(c)) {
      throw std::invalid_argument("instance: capacities must be finite, >= 0");
    }
  }
}

std::vector<double> normalized_weights(std::vector<double> weights, int n) {
  if (static_cast<int>(weights.size()) != n) {
    throw std::invalid_argument("instance: one client weight per node required");
  }
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument("instance: client weights must be >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("instance: client weights must not all be zero");
  }
  for (double& w : weights) w /= total;
  return weights;
}

}  // namespace

QppInstance::QppInstance(graph::Metric metric, std::vector<double> capacities,
                         quorum::QuorumSystem system,
                         quorum::AccessStrategy strategy)
    : metric_(std::make_shared<const graph::Metric>(std::move(metric))),
      capacities_(std::move(capacities)),
      system_(std::move(system)),
      strategy_(std::move(strategy)),
      client_weights_(static_cast<std::size_t>(num_nodes()),
                      num_nodes() > 0 ? 1.0 / num_nodes() : 0.0) {
  validate();
  element_loads_ = quorum::element_loads(system_, strategy_);
}

QppInstance::QppInstance(graph::Metric metric, std::vector<double> capacities,
                         quorum::QuorumSystem system,
                         quorum::AccessStrategy strategy,
                         std::vector<double> client_weights)
    : metric_(std::make_shared<const graph::Metric>(std::move(metric))),
      capacities_(std::move(capacities)),
      system_(std::move(system)),
      strategy_(std::move(strategy)),
      client_weights_(
          normalized_weights(std::move(client_weights), num_nodes())) {
  validate();
  element_loads_ = quorum::element_loads(system_, strategy_);
}

void QppInstance::validate() {
  check_capacities(capacities_, num_nodes());
  if (strategy_.num_quorums() != system_.num_quorums()) {
    throw std::invalid_argument("QppInstance: strategy/system mismatch");
  }
}

SsqppInstance::SsqppInstance(graph::Metric metric,
                             std::vector<double> capacities,
                             quorum::QuorumSystem system,
                             quorum::AccessStrategy strategy, int source)
    : SsqppInstance(std::make_shared<const graph::Metric>(std::move(metric)),
                    std::move(capacities), std::move(system),
                    std::move(strategy), source) {}

SsqppInstance::SsqppInstance(std::shared_ptr<const graph::Metric> metric,
                             std::vector<double> capacities,
                             quorum::QuorumSystem system,
                             quorum::AccessStrategy strategy, int source)
    : metric_(std::move(metric)),
      capacities_(std::move(capacities)),
      system_(std::move(system)),
      strategy_(std::move(strategy)),
      source_(source) {
  if (!metric_) throw std::invalid_argument("SsqppInstance: null metric");
  check_capacities(capacities_, num_nodes());
  if (strategy_.num_quorums() != system_.num_quorums()) {
    throw std::invalid_argument("SsqppInstance: strategy/system mismatch");
  }
  if (source_ < 0 || source_ >= num_nodes()) {
    throw std::invalid_argument("SsqppInstance: source out of range");
  }
  element_loads_ = quorum::element_loads(system_, strategy_);
}

namespace {

/// FNV-1a 64-bit, folded over typed field streams below.
class Fnv1a {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(int value) { mix(static_cast<std::uint64_t>(value)); }
  void mix(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

}  // namespace

std::uint64_t instance_digest(const QppInstance& instance) {
  Fnv1a fnv;
  const int n = instance.num_nodes();
  fnv.mix(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      fnv.mix(instance.metric()(i, j));
    }
  }
  for (double cap : instance.capacities()) fnv.mix(cap);
  fnv.mix(instance.system().universe_size());
  fnv.mix(instance.system().num_quorums());
  for (const quorum::Quorum& q : instance.system().quorums()) {
    fnv.mix(static_cast<int>(q.size()));
    for (int element : q) fnv.mix(element);
  }
  for (int q = 0; q < instance.strategy().num_quorums(); ++q) {
    fnv.mix(instance.strategy().probability(q));
  }
  for (double w : instance.client_weights()) fnv.mix(w);
  return fnv.value();
}

std::string instance_digest_hex(const QppInstance& instance) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(instance_digest(instance)));
  return buf;
}

bool is_valid_placement(const Placement& placement, int universe_size,
                        int num_nodes) {
  if (static_cast<int>(placement.size()) != universe_size) return false;
  for (int v : placement) {
    if (v < 0 || v >= num_nodes) return false;
  }
  return true;
}

}  // namespace qp::core
