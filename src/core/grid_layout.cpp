#include "core/grid_layout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/capacity.hpp"
#include "core/evaluators.hpp"

namespace qp::core {

std::vector<std::pair<int, int>> grid_shell_fill_order(int k) {
  if (k < 1) throw std::invalid_argument("grid_shell_fill_order: k >= 1");
  std::vector<std::pair<int, int>> order;
  order.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  order.emplace_back(0, 0);
  for (int l = 1; l < k; ++l) {
    for (int r = 0; r < l; ++r) order.emplace_back(r, l);   // column part
    for (int c = 0; c <= l; ++c) order.emplace_back(l, c);  // row part
  }
  return order;
}

namespace {

void validate_grid_instance(const SsqppInstance& instance, int k) {
  if (k < 1) throw std::invalid_argument("optimal_grid_layout: k >= 1");
  if (instance.system().universe_size() != k * k ||
      instance.system().num_quorums() != k * k) {
    throw std::invalid_argument(
        "optimal_grid_layout: instance is not a k x k grid system");
  }
  // Quorum q = r*k + c must be exactly row r union column c (the layout's
  // optimality proof depends on this structure, not just the counts).
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) {
      quorum::Quorum expected;
      for (int j = 0; j < k; ++j) expected.push_back(r * k + j);
      for (int i = 0; i < k; ++i) {
        if (i != r) expected.push_back(i * k + c);
      }
      std::sort(expected.begin(), expected.end());
      if (instance.system().quorum(r * k + c) != expected) {
        throw std::invalid_argument(
            "optimal_grid_layout: quorum " + std::to_string(r * k + c) +
            " is not row " + std::to_string(r) + " union column " +
            std::to_string(c));
      }
    }
  }
  const double uniform = 1.0 / (k * k);
  for (int q = 0; q < instance.system().num_quorums(); ++q) {
    if (std::abs(instance.strategy().probability(q) - uniform) > 1e-9) {
      throw std::invalid_argument(
          "optimal_grid_layout: uniform access strategy required (Sec 4.1)");
    }
  }
}

}  // namespace

std::optional<GridLayoutResult> optimal_grid_layout(
    const SsqppInstance& instance, int k) {
  validate_grid_instance(instance, k);
  const int num_elements = k * k;
  // Uniform element load of the grid under the uniform strategy: each
  // element is in 2k - 1 quorums out of k^2.
  const double load = static_cast<double>(2 * k - 1) / (k * k);

  std::vector<CapacitySlot> slots =  // the k^2 nearest slots
      capacity_slots(instance.metric(), instance.capacities(), load,
                     instance.source(), num_elements);
  if (static_cast<int>(slots.size()) < num_elements) return std::nullopt;

  // tau_1 >= tau_2 >= ... >= tau_{k^2}: slot distances in decreasing order.
  std::reverse(slots.begin(), slots.end());

  const std::vector<std::pair<int, int>> order = grid_shell_fill_order(k);
  GridLayoutResult result;
  result.k = k;
  result.matrix.assign(static_cast<std::size_t>(num_elements), 0.0);
  result.placement.assign(static_cast<std::size_t>(num_elements), -1);
  for (int i = 0; i < num_elements; ++i) {
    const auto [r, c] = order[static_cast<std::size_t>(i)];
    const CapacitySlot& slot = slots[static_cast<std::size_t>(i)];
    result.matrix[static_cast<std::size_t>(r) * static_cast<std::size_t>(k) +
                  static_cast<std::size_t>(c)] = slot.distance;
    result.placement[static_cast<std::size_t>(r * k + c)] = slot.node;
  }
  result.delay = source_expected_max_delay(instance, result.placement);
  QP_INVARIANT(
      check::validate_placement(instance, result.placement, {1.0, 1e-9}).ok(),
      "Sec 4.1 grid layout must respect capacities exactly (Thm 1.3)");
  return result;
}

}  // namespace qp::core
