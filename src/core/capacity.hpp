#pragma once

/// \file capacity.hpp
/// Capacity preprocessing for uniform-load quorum systems (paper Sec 4.1):
/// nodes with cap(v) < load(u) are suppressed and nodes with larger capacity
/// are replicated into floor(cap(v) / load(u)) unit "slots", which is
/// equivalent to greedily packing copies of load(u). Layout algorithms then
/// assign elements to slots.

#include <vector>

#include "graph/metric.hpp"

namespace qp::core {

/// One placement slot: a node that can absorb one element of uniform load.
struct CapacitySlot {
  int node = 0;
  double distance = 0.0;  ///< d(source, node)
};

/// The \p count slots nearest to \p source among those the capacities
/// induce for a given per-element load, sorted by non-decreasing distance
/// from \p source (ties by node id); fewer when the capacities induce fewer.
/// A node contributes at most \p count slots, so unbounded capacities do not
/// materialize billions of them. The result is the first \p count slots of
/// the full (distance, node) order.
/// \throws std::invalid_argument if per_element_load <= 0 or count < 1.
std::vector<CapacitySlot> capacity_slots(const graph::Metric& metric,
                                         const std::vector<double>& capacities,
                                         double per_element_load, int source,
                                         int count);

}  // namespace qp::core
