/// libFuzzer harness for the fault-schedule reader
/// (src/sim/fault_schedule.cpp), the `--faults FILE` entry point of
/// `qplace simulate` and `qplace analyze`.
/// Contract: parse a valid `qplace.faults.v1` document, throw
/// std::runtime_error (malformed JSON, foreign schema, node ids that are not
/// integers in [0, INT_MAX]) or std::invalid_argument (invalid windows) on
/// anything else. On every accepted schedule the indexed queries must equal
/// a linear scan over the schedule-order windows at every window boundary
/// (gray products bit for bit), and the rendering must round-trip.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault_schedule.hpp"

namespace {

using qp::sim::FaultSchedule;

bool covers(double from, double until, double t) {
  return t >= from && t < until;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void check_against_scan(const FaultSchedule& s) {
  std::vector<double> times;
  std::vector<int> nodes = {-1};
  for (const auto& w : s.crashes()) {
    times.insert(times.end(), {w.from, w.until});
    nodes.push_back(w.node);
  }
  for (const auto& w : s.partitions()) {
    times.insert(times.end(), {w.from, w.until});
  }
  for (const auto& w : s.gray()) {
    times.insert(times.end(), {w.from, w.until});
    nodes.push_back(w.node);
  }
  if (s.max_node() < 2147483647) nodes.push_back(s.max_node() + 1);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  for (const int node : nodes) {
    for (const double t : times) {
      bool crashed = false;
      for (const auto& w : s.crashes()) {
        crashed = crashed || (w.node == node && covers(w.from, w.until, t));
      }
      double factor = 1.0;
      for (const auto& w : s.gray()) {
        if (w.node == node && covers(w.from, w.until, t)) factor *= w.factor;
      }
      if (s.crashed(node, t) != crashed) __builtin_trap();
      if (!same_bits(s.gray_factor(node, t), factor)) __builtin_trap();
    }
  }

  const auto overlaps = [](double wf, double wu, double from, double until) {
    return wf <= until && from < wu;
  };
  // Point queries and each gap between consecutive boundaries, both ways.
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double next = times[std::min(i + 1, times.size() - 1)];
    for (const auto& [from, until] : {std::pair{times[i], times[i]},
                                     std::pair{times[i], next},
                                     std::pair{next, times[i]}}) {
      bool active = false;
      for (const auto& w : s.crashes()) {
        active = active || overlaps(w.from, w.until, from, until);
      }
      for (const auto& w : s.partitions()) {
        active = active || overlaps(w.from, w.until, from, until);
      }
      for (const auto& w : s.gray()) {
        active = active || overlaps(w.from, w.until, from, until);
      }
      if (s.any_active(from, until) != active) __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const FaultSchedule schedule = qp::sim::parse_fault_schedule(text);
    check_against_scan(schedule);
    const std::string rendered = qp::sim::render_fault_schedule(schedule);
    if (qp::sim::render_fault_schedule(
            qp::sim::parse_fault_schedule(rendered)) != rendered) {
      __builtin_trap();
    }
  } catch (const std::runtime_error&) {
    // Malformed document or node id rejected: the documented path.
  } catch (const std::invalid_argument&) {
    // Invalid window rejected: the documented path.
  }
  return 0;
}
