// FaultSchedule answers crashed / gray_factor from its windows sorted by
// node and any_active from its windows sorted by start. These tests hold
// every query to a linear scan over the schedule-order windows written
// here: the same booleans, and the same gray products bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "sim/fault_schedule.hpp"

namespace qp::sim {
namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool covers(double from, double until, double t) {
  return t >= from && t < until;
}

bool scan_crashed(const FaultSchedule& s, int node, double t) {
  for (const CrashWindow& w : s.crashes()) {
    if (w.node == node && covers(w.from, w.until, t)) return true;
  }
  return false;
}

double scan_gray_factor(const FaultSchedule& s, int node, double t) {
  double factor = 1.0;
  for (const GrayWindow& w : s.gray()) {
    if (w.node == node && covers(w.from, w.until, t)) factor *= w.factor;
  }
  return factor;
}

bool scan_partitioned(const FaultSchedule& s, int a, int b, double t) {
  const auto on = [](const std::vector<int>& side, int v) {
    return std::find(side.begin(), side.end(), v) != side.end();
  };
  for (const PartitionWindow& w : s.partitions()) {
    if (covers(w.from, w.until, t) &&
        ((on(w.side_a, a) && on(w.side_b, b)) ||
         (on(w.side_a, b) && on(w.side_b, a)))) {
      return true;
    }
  }
  return false;
}

bool scan_any_active(const FaultSchedule& s, double from, double until) {
  const auto overlaps = [&](double wf, double wu) {
    return wf <= until && from < wu;
  };
  for (const CrashWindow& w : s.crashes()) {
    if (overlaps(w.from, w.until)) return true;
  }
  for (const PartitionWindow& w : s.partitions()) {
    if (overlaps(w.from, w.until)) return true;
  }
  for (const GrayWindow& w : s.gray()) {
    if (overlaps(w.from, w.until)) return true;
  }
  return false;
}

/// Every window boundary, its two nextafter neighbours, 0 and +inf,
/// ascending and duplicate-free.
std::vector<double> boundary_times(const FaultSchedule& s) {
  std::set<double> times = {0.0, kInf};
  const auto add = [&](double b) {
    times.insert(b);
    times.insert(std::nextafter(b, -kInf));
    times.insert(std::nextafter(b, kInf));
  };
  for (const CrashWindow& w : s.crashes()) add(w.from), add(w.until);
  for (const PartitionWindow& w : s.partitions()) add(w.from), add(w.until);
  for (const GrayWindow& w : s.gray()) add(w.from), add(w.until);
  return {times.begin(), times.end()};
}

/// Every node with a window, every node up to max_node() + 1 (capped), and
/// the ids no window can name: negatives and INT_MAX.
std::vector<int> query_nodes(const FaultSchedule& s) {
  std::set<int> nodes = {std::numeric_limits<int>::min(), -2, -1, 0, kIntMax};
  for (int v = 0; v <= std::min(s.max_node(), 256) + 1; ++v) nodes.insert(v);
  for (const CrashWindow& w : s.crashes()) nodes.insert(w.node);
  for (const GrayWindow& w : s.gray()) nodes.insert(w.node);
  return {nodes.begin(), nodes.end()};
}

void expect_matches_scan(const FaultSchedule& s) {
  std::vector<double> times = boundary_times(s);
  const std::vector<int> nodes = query_nodes(s);
  for (const int node : nodes) {
    for (const double t : times) {
      ASSERT_EQ(s.crashed(node, t), scan_crashed(s, node, t))
          << "node " << node << " t " << t;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(s.gray_factor(node, t)),
                std::bit_cast<std::uint64_t>(scan_gray_factor(s, node, t)))
          << "node " << node << " t " << t;
    }
    ASSERT_FALSE(s.crashed(node, kNaN));
    ASSERT_EQ(s.gray_factor(node, kNaN), 1.0);
  }

  // failed_elements: one element on every non-negative query node, seen
  // from a client on each side of every partition and from a bystander.
  core::Placement placement;
  for (const int node : nodes) {
    if (node >= 0) placement.push_back(node);
  }
  std::set<int> clients = {0, std::max(s.max_node(), 0)};
  for (const PartitionWindow& w : s.partitions()) {
    clients.insert(w.side_a.front());
    clients.insert(w.side_b.back());
  }
  for (const int client : clients) {
    for (const double t : times) {
      const std::vector<bool> failed =
          s.failed_elements(placement, client, t);
      ASSERT_EQ(failed.size(), placement.size());
      for (std::size_t u = 0; u < placement.size(); ++u) {
        ASSERT_EQ(failed[u],
                  scan_crashed(s, placement[u], t) ||
                      scan_partitioned(s, client, placement[u], t))
            << "client " << client << " node " << placement[u] << " t " << t;
      }
    }
  }

  // any_active over point, short, and long query intervals, and NaN ends.
  times.push_back(kNaN);
  for (std::size_t i = 0; i < times.size(); ++i) {
    for (const std::size_t j : {i, i + 1, i + 2, i + 7, times.size() - 1}) {
      if (j >= times.size()) continue;
      for (const auto& [from, until] :
           {std::pair{times[i], times[j]}, std::pair{times[j], times[i]}}) {
        ASSERT_EQ(s.any_active(from, until), scan_any_active(s, from, until))
            << "[" << from << ", " << until << "]";
      }
    }
  }
}

TEST(FaultScheduleIndex, RandomSchedulesMatchTheScan) {
  RandomFaultOptions churn;
  churn.crash_rate = 4.0;
  churn.mean_downtime = 10.0;
  churn.gray_rate = 4.0;
  churn.mean_gray_duration = 15.0;
  churn.gray_factor = 3.3;
  churn.partition_rate = 3.0;
  churn.mean_partition_duration = 20.0;
  for (const int nodes : {1, 5, 16}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("nodes " + std::to_string(nodes) + " seed " +
                   std::to_string(seed));
      const FaultSchedule s = random_fault_schedule(nodes, 100.0, churn, seed);
      ASSERT_FALSE(s.crashes().empty());
      ASSERT_FALSE(s.gray().empty());
      expect_matches_scan(s);
    }
  }
}

TEST(FaultScheduleIndex, OverlappingGrayFactorsMultiplyInScheduleOrder) {
  // Node 4's windows all cover [20, 30), listed 3.3, 7.7, 1.1 and starting
  // later the earlier they are listed; other nodes' windows sit between
  // them. Rounding makes the product order-dependent: only schedule order
  // gives the scan's bits.
  const FaultSchedule s({}, {},
                        {{9, 0.0, 100.0, 2.0},
                         {4, 20.0, 30.0, 3.3},
                         {0, 5.0, 25.0, 1.5},
                         {4, 10.0, 30.0, 7.7},
                         {9, 15.0, 40.0, 1.25},
                         {4, 0.0, 30.0, 1.1}});
  const double in_order = 3.3 * 7.7 * 1.1;
  ASSERT_NE(std::bit_cast<std::uint64_t>(in_order),
            std::bit_cast<std::uint64_t>(1.1 * 3.3 * 7.7));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.gray_factor(4, 25.0)),
            std::bit_cast<std::uint64_t>(in_order));
  EXPECT_EQ(s.gray_factor(4, 15.0), 7.7 * 1.1);
  EXPECT_EQ(s.gray_factor(9, 20.0), 2.0 * 1.25);
  expect_matches_scan(s);
}

TEST(FaultScheduleIndex, NodesWithoutWindowsAndOutOfRangeNodes) {
  const FaultSchedule s({{2, 10.0, 20.0}, {5, 0.0, 50.0}, {2, 15.0, 30.0}},
                        {{{1}, {6}, 5.0, 15.0}},
                        {{5, 10.0, 20.0, 4.0}});
  EXPECT_EQ(s.max_node(), 6);
  for (const int node : {-1, 0, 1, 3, 4, 7, kIntMax}) {
    EXPECT_FALSE(s.crashed(node, 12.0)) << node;
    EXPECT_EQ(s.gray_factor(node, 12.0), 1.0) << node;
  }
  EXPECT_TRUE(s.crashed(2, 25.0));
  EXPECT_FALSE(s.crashed(2, 30.0));
  expect_matches_scan(s);
}

TEST(FaultScheduleIndex, DefaultScheduleAnswersFaultFree) {
  const FaultSchedule s;
  EXPECT_FALSE(s.crashed(0, 0.0));
  EXPECT_EQ(s.gray_factor(0, 0.0), 1.0);
  EXPECT_FALSE(s.any_active(0.0, kInf));
  EXPECT_EQ(s.failed_elements({0, 3, 3}, 1, 5.0), std::vector<bool>(3, false));
  expect_matches_scan(s);
}

TEST(FaultScheduleIndex, WindowOnNodeIntMax) {
  // A table indexed by node id would need 2^31 slots here; the sorted runs
  // hold one window each.
  const FaultSchedule s({{kIntMax, 1.0, 2.0}, {0, 0.0, 1.0}},
                        {{{0}, {kIntMax}, 3.0, 4.0}},
                        {{kIntMax, 0.0, 5.0, 2.0}});
  EXPECT_EQ(s.max_node(), kIntMax);
  EXPECT_TRUE(s.crashed(kIntMax, 1.5));
  EXPECT_FALSE(s.crashed(kIntMax - 1, 1.5));
  EXPECT_EQ(s.gray_factor(kIntMax, 4.0), 2.0);
  EXPECT_EQ(s.failed_elements({kIntMax, 0}, 0, 3.5),
            (std::vector<bool>{true, false}));
  EXPECT_EQ(render_fault_schedule(parse_fault_schedule(
                render_fault_schedule(s))),
            render_fault_schedule(s));
  expect_matches_scan(s);
}

TEST(FaultScheduleIndex, AnyActiveMatchesTheScanOnNestedAndTouchingWindows) {
  // A long window hiding short ones, zero-length windows, windows that
  // touch end to start, and one reaching +inf.
  const FaultSchedule s({{0, 0.0, 100.0}, {1, 10.0, 10.0}, {1, 20.0, 30.0}},
                        {{{0}, {1}, 30.0, 40.0}},
                        {{2, 150.0, 150.0, 2.0}, {2, 200.0, kInf, 3.0}});
  EXPECT_TRUE(s.any_active(99.0, 99.0));
  EXPECT_FALSE(s.any_active(100.0, 149.0));
  EXPECT_TRUE(s.any_active(100.0, 150.0));  // zero-length [150, 150)
  EXPECT_FALSE(s.any_active(150.0, 199.0));
  EXPECT_TRUE(s.any_active(1e300, 1e300));
  EXPECT_FALSE(s.any_active(kNaN, 1e300));
  EXPECT_FALSE(s.any_active(0.0, kNaN));
  expect_matches_scan(s);
}

}  // namespace
}  // namespace qp::sim
