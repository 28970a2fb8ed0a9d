#include "core/capacity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qp::core {

std::vector<CapacitySlot> capacity_slots(const graph::Metric& metric,
                                         const std::vector<double>& capacities,
                                         double per_element_load, int source,
                                         int count) {
  if (!(per_element_load > 0.0)) {
    throw std::invalid_argument("capacity_slots: per_element_load > 0 required");
  }
  if (count < 1) {
    throw std::invalid_argument("capacity_slots: count >= 1");
  }
  if (static_cast<int>(capacities.size()) != metric.num_points()) {
    throw std::invalid_argument("capacity_slots: one capacity per node");
  }
  if (source < 0 || source >= metric.num_points()) {
    throw std::invalid_argument("capacity_slots: source out of range");
  }
  std::vector<CapacitySlot> slots;
  for (int v = 0; v < metric.num_points(); ++v) {
    // A fixed relative tolerance absorbs accumulated floating-point error in
    // capacities expressed as multiples of the element load. Clamp before
    // the int conversion: huge capacity/load ratios must not overflow, and
    // no node can fill more than count of the count nearest slots.
    const double raw = std::floor(capacities[static_cast<std::size_t>(v)] /
                                      per_element_load +
                                  1e-9);
    const int copies =
        raw >= static_cast<double>(count) ? count : static_cast<int>(raw);
    for (int c = 0; c < copies; ++c) {
      slots.push_back({v, metric(source, v)});
    }
  }
  // (distance, node) orders slots totally up to copies of one node, which
  // are identical, so this prefix equals that of a full stable sort.
  const std::size_t kept =
      std::min(slots.size(), static_cast<std::size_t>(count));
  std::partial_sort(slots.begin(),
                    slots.begin() + static_cast<std::ptrdiff_t>(kept),
                    slots.end(),
                    [](const CapacitySlot& a, const CapacitySlot& b) {
                      if (a.distance != b.distance) {
                        return a.distance < b.distance;
                      }
                      return a.node < b.node;
                    });
  slots.resize(kept);
  return slots;
}

}  // namespace qp::core
