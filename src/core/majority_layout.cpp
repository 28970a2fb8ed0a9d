#include "core/majority_layout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/capacity.hpp"
#include "core/evaluators.hpp"

namespace qp::core {

namespace {

/// C(a, b) for 0 <= b <= a (0 outside that range). Exact in long double for
/// the n <= ~60 range these layouts operate in.
long double binomial(int a, int b) {
  if (b < 0 || b > a || a < 0) return 0.0L;
  long double result = 1.0L;
  b = std::min(b, a - b);
  for (int i = 1; i <= b; ++i) {
    result = result * static_cast<long double>(a - b + i) /
             static_cast<long double>(i);
  }
  return result;
}

}  // namespace

double majority_delay_formula(std::vector<double> slot_distances, int t) {
  const int n = static_cast<int>(slot_distances.size());
  if (t < 1 || t > n || 2 * t <= n) {
    throw std::invalid_argument(
        "majority_delay_formula: need 1 <= t <= n and 2t > n");
  }
  std::sort(slot_distances.begin(), slot_distances.end(),
            std::greater<double>());
  const long double total = binomial(n, t);
  long double sum = 0.0L;
  for (int i = 1; i <= n - t + 1; ++i) {
    sum += static_cast<long double>(
               slot_distances[static_cast<std::size_t>(i - 1)]) *
           binomial(n - i, t - 1);
  }
  return static_cast<double>(sum / total);
}

namespace {

void validate_majority_instance(const SsqppInstance& instance, int t) {
  const int n = instance.system().universe_size();
  if (t < 1 || t > n || 2 * t <= n) {
    throw std::invalid_argument("majority_layout: need 1 <= t <= n, 2t > n");
  }
  const long double expected_quorums = binomial(n, t);
  if (static_cast<long double>(instance.system().num_quorums()) !=
      expected_quorums) {
    throw std::invalid_argument(
        "majority_layout: system is not the full threshold-t family");
  }
  for (int q = 0; q < instance.system().num_quorums(); ++q) {
    if (static_cast<int>(instance.system().quorum(q).size()) != t) {
      throw std::invalid_argument(
          "majority_layout: quorum of wrong cardinality");
    }
    if (std::abs(instance.strategy().probability(q) -
                 1.0 / static_cast<double>(expected_quorums)) > 1e-9) {
      throw std::invalid_argument(
          "majority_layout: uniform access strategy required (Sec 4.2)");
    }
  }
}

}  // namespace

std::optional<MajorityLayoutResult> majority_layout(
    const SsqppInstance& instance, int t) {
  validate_majority_instance(instance, t);
  const int n = instance.system().universe_size();
  // Under the uniform strategy each element lies in C(n-1, t-1) of the
  // C(n, t) quorums, i.e. load(u) = t / n.
  const double load = static_cast<double>(t) / n;

  const std::vector<CapacitySlot> slots = capacity_slots(
      instance.metric(), instance.capacities(), load, instance.source(), n);
  if (static_cast<int>(slots.size()) < n) return std::nullopt;

  MajorityLayoutResult result;
  result.placement.resize(static_cast<std::size_t>(n));
  std::vector<double> distances(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    result.placement[static_cast<std::size_t>(u)] =
        slots[static_cast<std::size_t>(u)].node;
    distances[static_cast<std::size_t>(u)] =
        slots[static_cast<std::size_t>(u)].distance;
  }
  result.delay = source_expected_max_delay(instance, result.placement);
  result.formula_delay = majority_delay_formula(std::move(distances), t);
  QP_INVARIANT(
      check::validate_placement(instance, result.placement, {1.0, 1e-9}).ok(),
      "Sec 4.2 majority layout must respect capacities exactly (Thm 1.3)");
  QP_INVARIANT(std::abs(result.delay - result.formula_delay) <=
                   1e-6 * std::max(1.0, result.formula_delay),
               "measured Delta_f(v0) must equal the eq. (19) closed form "
               "(placement invariance, paper Sec 4.2)");
  return result;
}

}  // namespace qp::core
