#include "core/capacity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"

namespace qp::core {
namespace {

TEST(CapacitySlots, ValidatesInput) {
  const graph::Metric metric = graph::Metric::uniform(3);
  EXPECT_THROW(capacity_slots(metric, {1.0, 1.0, 1.0}, 0.0, 0, 10),
               std::invalid_argument);
  EXPECT_THROW(capacity_slots(metric, {1.0, 1.0}, 1.0, 0, 10),
               std::invalid_argument);
  EXPECT_THROW(capacity_slots(metric, {1.0, 1.0, 1.0}, 1.0, 5, 10),
               std::invalid_argument);
  EXPECT_THROW(capacity_slots(metric, {1.0, 1.0, 1.0}, 1.0, 0, 0),
               std::invalid_argument);
}

TEST(CapacitySlots, HugeCapacityClampedToMaxCopies) {
  // Effectively-infinite capacity must not materialize billions of slots:
  // only the 7 nearest are returned, all on the source.
  const graph::Metric metric = graph::Metric::uniform(2);
  const auto slots = capacity_slots(metric, {1e12, 1e12}, 0.5, 0, 7);
  ASSERT_EQ(slots.size(), 7u);
  for (const CapacitySlot& slot : slots) EXPECT_EQ(slot.node, 0);
}

TEST(CapacitySlots, SuppressesSmallNodes) {
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(3));
  // Node 1 below the element load: contributes no slot.
  const auto slots = capacity_slots(metric, {1.0, 0.4, 1.0}, 0.5, 0, 10);
  ASSERT_EQ(slots.size(), 4u);  // nodes 0 and 2, two slots each
  EXPECT_EQ(slots[0].node, 0);
  EXPECT_EQ(slots[1].node, 0);
  EXPECT_EQ(slots[2].node, 2);
  EXPECT_EQ(slots[3].node, 2);
}

TEST(CapacitySlots, ReplicatesLargeNodes) {
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(2, 3.0));
  const auto slots = capacity_slots(metric, {2.5, 1.0}, 1.0, 0, 10);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].node, 0);
  EXPECT_EQ(slots[1].node, 0);
  EXPECT_EQ(slots[2].node, 1);
  EXPECT_DOUBLE_EQ(slots[2].distance, 3.0);
}

TEST(CapacitySlots, SortedByDistanceFromSource) {
  const graph::Metric metric = graph::Metric::line({0.0, 5.0, 2.0, 8.0});
  const auto slots = capacity_slots(metric, {1.0, 1.0, 1.0, 1.0}, 1.0, 0, 10);
  ASSERT_EQ(slots.size(), 4u);
  for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
    EXPECT_LE(slots[i].distance, slots[i + 1].distance);
  }
  EXPECT_EQ(slots[0].node, 0);
  EXPECT_EQ(slots[1].node, 2);
}

TEST(CapacitySlots, ToleratesFloatingPointCapacityMultiples) {
  // cap = 3 * load up to floating error must still yield 3 slots.
  const graph::Metric metric = graph::Metric::uniform(1);
  const double load = 0.1 + 0.2;  // 0.30000000000000004
  const auto slots = capacity_slots(metric, {0.9}, load, 0, 10);
  EXPECT_EQ(slots.size(), 3u);
}


/// Every slot the capacities induce (floor(cap / load) copies per node, at
/// most max_copies), stably sorted by (distance, node).
std::vector<CapacitySlot> all_slots_sorted(const graph::Metric& metric,
                                           const std::vector<double>& caps,
                                           double load, int source,
                                           int max_copies) {
  std::vector<CapacitySlot> slots;
  for (int v = 0; v < metric.num_points(); ++v) {
    const int copies = static_cast<int>(
        std::min(std::floor(caps[static_cast<std::size_t>(v)] / load + 1e-9),
                 static_cast<double>(max_copies)));
    for (int c = 0; c < copies; ++c) {
      slots.push_back({v, metric(source, v)});
    }
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const CapacitySlot& a, const CapacitySlot& b) {
                     if (a.distance != b.distance) return a.distance < b.distance;
                     return a.node < b.node;
                   });
  return slots;
}

TEST(CapacitySlots, NearestSlotsArePrefixOfFullSort) {
  std::mt19937_64 rng(29);
  std::uniform_int_distribution<int> copies(0, 3);
  std::uniform_int_distribution<int> count_of(1, 40);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + trial % 23;
    // Uniform metrics tie every non-source node; line metrics on a coarse
    // grid of coordinates tie some.
    std::vector<double> coordinates(static_cast<std::size_t>(n));
    for (double& x : coordinates) x = copies(rng) * 1.5;
    const graph::Metric metric = trial % 3 == 0
                                     ? graph::Metric::uniform(n)
                                     : graph::Metric::line(coordinates);
    // 0 to 3 copies per node: zero-capacity nodes and several copies.
    const double load = 0.25;
    std::vector<double> caps(static_cast<std::size_t>(n));
    for (double& cap : caps) cap = copies(rng) * load;
    const int source = static_cast<int>(rng() % static_cast<unsigned>(n));
    const int count = count_of(rng);
    const auto slots = capacity_slots(metric, caps, load, source, count);
    std::vector<CapacitySlot> expected =
        all_slots_sorted(metric, caps, load, source, count);
    expected.resize(std::min(expected.size(), static_cast<std::size_t>(count)));
    ASSERT_EQ(slots.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i].node, expected[i].node) << "trial " << trial;
      EXPECT_EQ(slots[i].distance, expected[i].distance) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace qp::core
