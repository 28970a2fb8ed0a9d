/// libFuzzer harness for the message-level simulator (src/sim/simulator.cpp).
/// The input bytes become a tiny case: a graph of at most 6 nodes, grid(2)
/// or majority(3, 2) placed on it (elements may share a node), the access
/// mode, selection policy, relay, service rate, jitter, warmup, timeout,
/// retries and backoff cap, and a fault schedule of up to three windows.
/// Contract: two runs of the case agree bit for bit, result and access-log
/// bytes; every resolved access is logged once; the per-client counts sum
/// to the completed count; availability reproduces it; and the access
/// log passes analyze's fault cross-checks against the schedule.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "graph/graph.hpp"
#include "graph/metric.hpp"
#include "obs/access_log.hpp"
#include "quorum/constructions.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qp;

/// Reads the input one byte at a time; past its end every byte is 0.
class Bytes {
 public:
  Bytes(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  std::uint8_t next() { return next_ < size_ ? data_[next_++] : 0; }
  template <typename T, std::size_t N>
  T pick(const T (&set)[N]) {
    return set[next() % N];
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t next_ = 0;
};

constexpr double kLengths[] = {0.5, 1.0, 1.0, 2.0, 3.0};
constexpr double kServiceRates[] = {0.0, 0.0, 2.0, 8.0};
constexpr double kJitters[] = {0.0, 0.1};
constexpr double kRates[] = {0.5, 1.0, 2.0};
constexpr double kWarmups[] = {0.0, 1.0, 5.0};
constexpr double kTimeouts[] = {0.0, 1.5, 3.0, 6.0, 12.0};
constexpr double kBackoffs[] = {0.0, 0.5, 1.0};
constexpr double kBackoffCaps[] = {0.0, 0.75, 2.0};
constexpr double kBuckets[] = {0.0, 5.0};
constexpr double kStarts[] = {0.0, 2.0, 5.0, 10.0, 20.0};
constexpr double kLengthsOfWindows[] = {0.0, 1.0, 5.0, 10.0, 30.0};
constexpr double kGrayFactors[] = {1.0, 2.0, 6.0};
constexpr double kDuration = 30.0;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_histogram(const obs::LogHistogram& a, const obs::LogHistogram& b) {
  return a.count() == b.count() && a.underflow() == b.underflow() &&
         a.overflow() == b.overflow() && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max()) && same_bits(a.sum(), b.sum()) &&
         a.buckets() == b.buckets();
}

bool same_result(const sim::SimulationResult& a,
                 const sim::SimulationResult& b) {
  return a.completed_accesses == b.completed_accesses &&
         same_bits(a.overall_mean_delay, b.overall_mean_delay) &&
         same_bits(a.per_client_mean_delay, b.per_client_mean_delay) &&
         a.per_client_count == b.per_client_count &&
         same_bits(a.per_node_access_share, b.per_node_access_share) &&
         same_bits(a.per_node_utilization, b.per_node_utilization) &&
         same_histogram(a.access_delay, b.access_delay) &&
         same_histogram(a.queue_wait, b.queue_wait) &&
         same_bits(a.per_node_mean_queue_depth, b.per_node_mean_queue_depth) &&
         a.per_node_max_queue_depth == b.per_node_max_queue_depth &&
         a.failed_accesses == b.failed_accesses &&
         a.unavailable_accesses == b.unavailable_accesses &&
         a.timed_out_attempts == b.timed_out_attempts &&
         a.retries == b.retries && same_bits(a.availability, b.availability) &&
         same_bits(a.availability_series, b.availability_series) &&
         a.safety_ok == b.safety_ok;
}

sim::FaultSchedule read_schedule(Bytes& bytes, int nodes) {
  std::vector<sim::CrashWindow> crashes;
  std::vector<sim::PartitionWindow> partitions;
  std::vector<sim::GrayWindow> gray;
  const int windows = bytes.next() % 4;
  for (int w = 0; w < windows; ++w) {
    const double from = bytes.pick(kStarts);
    const double until = from + bytes.pick(kLengthsOfWindows);
    switch (bytes.next() % 3) {
      case 0:
        crashes.push_back({bytes.next() % nodes, from, until});
        break;
      case 1: {
        // Node 0 on side a, the last node on side b (neither may be
        // empty), every other node on either side or on neither.
        sim::PartitionWindow window;
        window.from = from;
        window.until = until;
        window.side_a.push_back(0);
        for (int v = 1; v + 1 < nodes; ++v) {
          const int side = bytes.next() % 3;
          if (side == 1) window.side_a.push_back(v);
          if (side == 2) window.side_b.push_back(v);
        }
        window.side_b.push_back(nodes - 1);
        partitions.push_back(std::move(window));
        break;
      }
      default:
        gray.push_back(
            {bytes.next() % nodes, from, until, bytes.pick(kGrayFactors)});
        break;
    }
  }
  return sim::FaultSchedule(std::move(crashes), std::move(partitions),
                            std::move(gray));
}

struct Run {
  sim::SimulationResult result;
  std::string log;
};

Run run(const core::QppInstance& instance, const core::Placement& placement,
        sim::SimulationConfig config,
        const std::map<std::string, std::string>& context) {
  std::ostringstream out;
  obs::AccessLogWriter writer(out, {}, context);
  config.access_log = &writer;
  Run r{sim::simulate(instance, placement, config), ""};
  writer.close();
  r.log = out.str();
  return r;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Bytes bytes(data, size);
  const int nodes = 2 + bytes.next() % 5;
  graph::Graph graph(nodes);
  for (int v = 1; v < nodes; ++v) {
    graph.add_edge(v - 1, v, bytes.pick(kLengths));
  }
  for (int u = 0; u < nodes; ++u) {
    for (int v = u + 2; v < nodes; ++v) {
      if (bytes.next() % 3 == 0) graph.add_edge(u, v, bytes.pick(kLengths));
    }
  }
  const quorum::QuorumSystem system =
      bytes.next() % 2 == 0 ? quorum::grid(2) : quorum::majority(3, 2);
  const core::QppInstance instance(
      graph::Metric::from_graph(graph),
      std::vector<double>(static_cast<std::size_t>(nodes), 1e9), system,
      quorum::AccessStrategy::uniform(system));
  core::Placement placement;
  for (int u = 0; u < system.universe_size(); ++u) {
    placement.push_back(bytes.next() % nodes);
  }

  sim::SimulationConfig config;
  config.duration = kDuration;
  config.seed = bytes.next();
  config.mode = bytes.next() % 2 == 0 ? sim::AccessMode::kParallel
                                      : sim::AccessMode::kSequential;
  config.selection = bytes.next() % 2 == 0
                         ? sim::SelectionPolicy::kStrategy
                         : sim::SelectionPolicy::kNearestQuorum;
  // As in the CLI, only parallel accesses route through a relay.
  const int relay = bytes.next() % (nodes + 1) - 1;
  if (config.mode == sim::AccessMode::kParallel) config.relay_node = relay;
  config.service_rate = bytes.pick(kServiceRates);
  config.latency_jitter = bytes.pick(kJitters);
  config.arrival_rate_per_client = bytes.pick(kRates);
  config.warmup = bytes.pick(kWarmups);
  config.probe_timeout = bytes.pick(kTimeouts);
  config.max_attempts = 1 + bytes.next() % 4;
  config.retry_backoff = bytes.pick(kBackoffs);
  config.retry_backoff_cap = bytes.pick(kBackoffCaps);
  config.availability_bucket = bytes.pick(kBuckets);
  const sim::FaultSchedule schedule = read_schedule(bytes, nodes);
  if (!schedule.empty()) {
    config.faults = &schedule;
    if (config.probe_timeout == 0.0) config.probe_timeout = 3.0;
  }

  // The access-log context the CLI stamps, as far as analyze reads it.
  std::map<std::string, std::string> context = {
      {"mode", config.mode == sim::AccessMode::kSequential ? "sequential"
                                                            : "parallel"},
      {"relay", std::to_string(config.relay_node)},
      {"jitter", std::to_string(config.latency_jitter)},
      {"service_rate", std::to_string(config.service_rate)}};
  if (config.faults != nullptr) {
    context["fault_digest"] = sim::fault_schedule_digest(schedule);
    context["timeout"] = std::to_string(config.probe_timeout);
    context["retries"] = std::to_string(config.max_attempts);
  }

  const Run first = run(instance, placement, config, context);
  const Run second = run(instance, placement, config, context);
  if (!same_result(first.result, second.result) || first.log != second.log) {
    __builtin_trap();
  }

  const sim::SimulationResult& r = first.result;
  const std::int64_t resolved = r.completed_accesses + r.failed_accesses;
  std::istringstream in(first.log);
  const obs::ParsedAccessLog log = obs::parse_access_log(in);
  if (static_cast<std::int64_t>(log.records.size()) != resolved) {
    __builtin_trap();
  }
  if (std::accumulate(r.per_client_count.begin(), r.per_client_count.end(),
                      std::int64_t{0}) != r.completed_accesses) {
    __builtin_trap();
  }
  if (std::llround(r.availability * static_cast<double>(resolved)) !=
      (resolved > 0 ? r.completed_accesses : 0)) {
    __builtin_trap();
  }
  if (!obs::analyze_access_log(instance, placement, log, {}, &schedule)
           .faults_ok()) {
    __builtin_trap();
  }
  return 0;
}
