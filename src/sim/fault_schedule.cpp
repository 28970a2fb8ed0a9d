#include "sim/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/contracts.hpp"
#include "obs/json.hpp"

namespace qp::sim {

namespace {

constexpr const char* kSchema = "qplace.faults.v1";

/// Half-open window membership, the single convention for every fault kind.
bool active(double from, double until, double t) {
  return t >= from && t < until;
}

void check_window(int node, double from, double until, const char* kind) {
  if (node < 0) {
    throw std::invalid_argument(std::string("FaultSchedule: ") + kind +
                                " window has a negative node id");
  }
  if (!(until >= from) || from < 0.0) {
    throw std::invalid_argument(std::string("FaultSchedule: ") + kind +
                                " window must satisfy 0 <= from <= until");
  }
}

void check_side(const std::vector<int>& side, const char* name) {
  if (side.empty()) {
    throw std::invalid_argument(
        std::string("FaultSchedule: partition side ") + name + " is empty");
  }
  for (std::size_t i = 0; i < side.size(); ++i) {
    if (side[i] < 0) {
      throw std::invalid_argument("FaultSchedule: partition node id < 0");
    }
    if (i > 0 && side[i] <= side[i - 1]) {
      throw std::invalid_argument(
          "FaultSchedule: partition sides must be sorted and duplicate-free");
    }
  }
}

bool contains(const std::vector<int>& sorted, int node) {
  return std::binary_search(sorted.begin(), sorted.end(), node);
}

/// First window of `node`'s run in a node-sorted window list (or the first
/// window of a later node, or the end, when `node` has none).
template <typename Window>
auto run_of(const std::vector<Window>& by_node, int node) {
  return std::partition_point(
      by_node.begin(), by_node.end(),
      [node](const Window& w) { return w.node < node; });
}

template <typename Window>
std::vector<Window> sorted_by_node(const std::vector<Window>& windows) {
  std::vector<Window> by_node = windows;
  std::stable_sort(by_node.begin(), by_node.end(),
                   [](const Window& x, const Window& y) {
                     return x.node < y.node;
                   });
  return by_node;
}

using obs::json::append_double;
using obs::json::append_int;

void append_side(std::string& out, const std::vector<int>& side) {
  out += "[";
  for (std::size_t i = 0; i < side.size(); ++i) {
    if (i > 0) out += ", ";
    append_int(out, side[i]);
  }
  out += "]";
}

/// A parsed node id: an integer in [0, INT_MAX]. A cast would truncate
/// 2.7 or -0.5 to a node the schedule never named (and is undefined past
/// INT_MAX), so anything else is rejected.
int node_id(double value, const char* key, std::int64_t line_hint) {
  if (!(value >= 0.0 && value <= std::numeric_limits<int>::max() &&
        value == std::floor(value))) {
    throw std::runtime_error("fault schedule entry " +
                             std::to_string(line_hint) + " has a node id in '" +
                             key + "' that is not an integer in [0, " +
                             std::to_string(std::numeric_limits<int>::max()) +
                             "]");
  }
  return static_cast<int>(value);
}

double member(const obs::json::Value& value, const char* key,
              std::int64_t line_hint) {
  const obs::json::Value* m = value.find(key);
  if (m == nullptr || m->type != obs::json::Value::Type::kNumber) {
    throw std::runtime_error("fault schedule entry " +
                             std::to_string(line_hint) +
                             " misses numeric member '" + key + "'");
  }
  return m->number;
}

std::vector<int> int_array(const obs::json::Value& value, const char* key,
                           std::int64_t line_hint) {
  const obs::json::Value* m = value.find(key);
  if (m == nullptr || !m->is_array()) {
    throw std::runtime_error("fault schedule entry " +
                             std::to_string(line_hint) +
                             " misses array member '" + key + "'");
  }
  std::vector<int> out;
  out.reserve(m->array.size());
  for (const obs::json::Value& entry : m->array) {
    if (entry.type != obs::json::Value::Type::kNumber) {
      throw std::runtime_error("fault schedule entry " +
                               std::to_string(line_hint) +
                               " has a non-numeric node id in '" + key + "'");
    }
    out.push_back(node_id(entry.number, key, line_hint));
  }
  return out;
}

/// Poisson event counts at one rate. std::poisson_distribution requires a
/// positive mean, so a zero rate builds no distribution and draws 0 without
/// touching the RNG; a positive rate keeps one distribution for all draws.
struct PoissonCount {
  explicit PoissonCount(double mean) {
    if (mean > 0.0) distribution.emplace(mean);
  }
  int operator()(std::mt19937_64& rng) {
    return distribution ? (*distribution)(rng) : 0;
  }
  std::optional<std::poisson_distribution<int>> distribution;
};

}  // namespace

FaultSchedule::FaultSchedule(std::vector<CrashWindow> crashes,
                             std::vector<PartitionWindow> partitions,
                             std::vector<GrayWindow> gray)
    : crashes_(std::move(crashes)),
      partitions_(std::move(partitions)),
      gray_(std::move(gray)) {
  for (const CrashWindow& w : crashes_) {
    check_window(w.node, w.from, w.until, "crash");
    max_node_ = std::max(max_node_, w.node);
  }
  for (const PartitionWindow& w : partitions_) {
    check_window(0, w.from, w.until, "partition");
    check_side(w.side_a, "a");
    check_side(w.side_b, "b");
    for (const int node : w.side_a) {
      if (contains(w.side_b, node)) {
        throw std::invalid_argument(
            "FaultSchedule: partition sides must be disjoint");
      }
      max_node_ = std::max(max_node_, node);
    }
    for (const int node : w.side_b) max_node_ = std::max(max_node_, node);
  }
  for (const GrayWindow& w : gray_) {
    check_window(w.node, w.from, w.until, "gray");
    if (!(w.factor >= 1.0)) {
      throw std::invalid_argument(
          "FaultSchedule: gray factor must be >= 1");
    }
    max_node_ = std::max(max_node_, w.node);
  }

  crashes_by_node_ = sorted_by_node(crashes_);
  gray_by_node_ = sorted_by_node(gray_);
  std::vector<std::pair<double, double>> spans;
  spans.reserve(crashes_.size() + partitions_.size() + gray_.size());
  for (const CrashWindow& w : crashes_) spans.emplace_back(w.from, w.until);
  for (const PartitionWindow& w : partitions_) {
    spans.emplace_back(w.from, w.until);
  }
  for (const GrayWindow& w : gray_) spans.emplace_back(w.from, w.until);
  std::sort(spans.begin(), spans.end());
  window_from_.reserve(spans.size());
  until_prefix_max_.reserve(spans.size());
  double reach = -std::numeric_limits<double>::infinity();
  for (const auto& [from, until] : spans) {
    window_from_.push_back(from);
    reach = std::max(reach, until);
    until_prefix_max_.push_back(reach);
  }
}

bool FaultSchedule::crashed(int node, double t) const {
  for (auto w = run_of(crashes_by_node_, node);
       w != crashes_by_node_.end() && w->node == node; ++w) {
    if (active(w->from, w->until, t)) return true;
  }
  return false;
}

bool FaultSchedule::partitioned(int a, int b, double t) const {
  for (const PartitionWindow& w : partitions_) {
    if (!active(w.from, w.until, t)) continue;
    if ((contains(w.side_a, a) && contains(w.side_b, b)) ||
        (contains(w.side_a, b) && contains(w.side_b, a))) {
      return true;
    }
  }
  return false;
}

double FaultSchedule::gray_factor(int node, double t) const {
  // The run keeps schedule order, so the product rounds as a scan of gray_
  // would.
  double factor = 1.0;
  for (auto w = run_of(gray_by_node_, node);
       w != gray_by_node_.end() && w->node == node; ++w) {
    if (active(w->from, w->until, t)) factor *= w->factor;
  }
  return factor;
}

bool FaultSchedule::any_active(double from, double until) const {
  // Window [wf, wu) overlaps query [from, until] iff wf <= until and
  // from < wu. The windows with wf <= until are a prefix of the from-sorted
  // index (none when until is NaN), and its largest wu decides.
  const auto prefix = std::partition_point(
      window_from_.begin(), window_from_.end(),
      [until](double wf) { return wf <= until; });
  return prefix != window_from_.begin() &&
         from < until_prefix_max_[static_cast<std::size_t>(
                    prefix - window_from_.begin() - 1)];
}

std::vector<bool> FaultSchedule::failed_elements(
    const core::Placement& placement, int client, double t) const {
  std::vector<bool> failed;
  failed_elements(placement, client, t, failed);
  return failed;
}

void FaultSchedule::failed_elements(const core::Placement& placement,
                                    int client, double t,
                                    std::vector<bool>& failed) const {
  failed.resize(placement.size());
  for (std::size_t u = 0; u < placement.size(); ++u) {
    const int node = placement[u];
    if (node < 0) {
      throw std::invalid_argument(
          "FaultSchedule::failed_elements: negative placement node");
    }
    failed[u] = crashed(node, t) || partitioned(client, node, t);
  }
}

FaultSchedule parse_fault_schedule(const std::string& text) {
  const obs::json::Value doc = obs::json::parse(text);
  if (!doc.is_object()) {
    throw std::runtime_error("fault schedule is not a JSON object");
  }
  const std::string schema = doc.get_string("schema", "");
  if (schema != kSchema) {
    throw std::runtime_error("fault schedule has schema '" + schema +
                             "', expected '" + kSchema + "'");
  }
  std::vector<CrashWindow> crashes;
  std::vector<PartitionWindow> partitions;
  std::vector<GrayWindow> gray;
  if (const obs::json::Value* list = doc.find("crashes")) {
    if (!list->is_array()) {
      throw std::runtime_error("fault schedule 'crashes' is not an array");
    }
    std::int64_t i = 0;
    for (const obs::json::Value& entry : list->array) {
      ++i;
      CrashWindow w;
      w.node = node_id(member(entry, "node", i), "node", i);
      w.from = member(entry, "from", i);
      w.until = member(entry, "until", i);
      crashes.push_back(w);
    }
  }
  if (const obs::json::Value* list = doc.find("partitions")) {
    if (!list->is_array()) {
      throw std::runtime_error("fault schedule 'partitions' is not an array");
    }
    std::int64_t i = 0;
    for (const obs::json::Value& entry : list->array) {
      ++i;
      PartitionWindow w;
      w.side_a = int_array(entry, "a", i);
      w.side_b = int_array(entry, "b", i);
      w.from = member(entry, "from", i);
      w.until = member(entry, "until", i);
      partitions.push_back(std::move(w));
    }
  }
  if (const obs::json::Value* list = doc.find("gray")) {
    if (!list->is_array()) {
      throw std::runtime_error("fault schedule 'gray' is not an array");
    }
    std::int64_t i = 0;
    for (const obs::json::Value& entry : list->array) {
      ++i;
      GrayWindow w;
      w.node = node_id(member(entry, "node", i), "node", i);
      w.from = member(entry, "from", i);
      w.until = member(entry, "until", i);
      w.factor = member(entry, "factor", i);
      gray.push_back(w);
    }
  }
  return FaultSchedule(std::move(crashes), std::move(partitions),
                       std::move(gray));
}

FaultSchedule load_fault_schedule(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("fault schedule: read failed");
  }
  return parse_fault_schedule(text.str());
}

std::string render_fault_schedule(const FaultSchedule& schedule) {
  std::string out = "{\"schema\": \"";
  out += kSchema;
  out += "\", \"crashes\": [";
  for (std::size_t i = 0; i < schedule.crashes().size(); ++i) {
    const CrashWindow& w = schedule.crashes()[i];
    if (i > 0) out += ", ";
    out += "{\"node\": ";
    append_int(out, w.node);
    out += ", \"from\": ";
    append_double(out, w.from);
    out += ", \"until\": ";
    append_double(out, w.until);
    out += "}";
  }
  out += "], \"partitions\": [";
  for (std::size_t i = 0; i < schedule.partitions().size(); ++i) {
    const PartitionWindow& w = schedule.partitions()[i];
    if (i > 0) out += ", ";
    out += "{\"a\": ";
    append_side(out, w.side_a);
    out += ", \"b\": ";
    append_side(out, w.side_b);
    out += ", \"from\": ";
    append_double(out, w.from);
    out += ", \"until\": ";
    append_double(out, w.until);
    out += "}";
  }
  out += "], \"gray\": [";
  for (std::size_t i = 0; i < schedule.gray().size(); ++i) {
    const GrayWindow& w = schedule.gray()[i];
    if (i > 0) out += ", ";
    out += "{\"node\": ";
    append_int(out, w.node);
    out += ", \"from\": ";
    append_double(out, w.from);
    out += ", \"until\": ";
    append_double(out, w.until);
    out += ", \"factor\": ";
    append_double(out, w.factor);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string fault_schedule_digest(const FaultSchedule& schedule) {
  const std::string text = render_fault_schedule(schedule);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;  // FNV-1a prime
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

FaultSchedule random_fault_schedule(int num_nodes, double duration,
                                    const RandomFaultOptions& options,
                                    std::uint64_t seed) {
  if (num_nodes <= 0 || !(duration > 0.0)) {
    throw std::invalid_argument(
        "random_fault_schedule: num_nodes and duration must be positive");
  }
  if (options.crash_rate < 0.0 || options.partition_rate < 0.0 ||
      options.gray_rate < 0.0 || options.mean_downtime < 0.0 ||
      options.mean_partition_duration < 0.0 ||
      options.mean_gray_duration < 0.0) {
    throw std::invalid_argument(
        "random_fault_schedule: rates and durations must be non-negative");
  }
  if (!(options.gray_factor >= 1.0)) {
    throw std::invalid_argument(
        "random_fault_schedule: gray_factor must be >= 1");
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(0.0, duration);
  const auto truncated = [&](double start, double mean) {
    std::exponential_distribution<double> length(1.0 / std::max(mean, 1e-9));
    return std::min(duration, start + (mean > 0.0 ? length(rng) : 0.0));
  };

  std::vector<CrashWindow> crashes;
  std::vector<PartitionWindow> partitions;
  std::vector<GrayWindow> gray;

  PoissonCount crash_count(options.crash_rate);
  for (int node = 0; node < num_nodes; ++node) {
    const int count = crash_count(rng);
    for (int i = 0; i < count; ++i) {
      CrashWindow w;
      w.node = node;
      w.from = when(rng);
      w.until = truncated(w.from, options.mean_downtime);
      crashes.push_back(w);
    }
  }

  const int partitions_drawn = PoissonCount(options.partition_rate)(rng);
  for (int i = 0; i < partitions_drawn && num_nodes >= 2; ++i) {
    // A random non-trivial cut of a seeded shuffle.
    std::vector<int> order(static_cast<std::size_t>(num_nodes));
    for (int v = 0; v < num_nodes; ++v) order[static_cast<std::size_t>(v)] = v;
    std::shuffle(order.begin(), order.end(), rng);
    std::uniform_int_distribution<int> cut(1, num_nodes - 1);
    const int split = cut(rng);
    PartitionWindow w;
    w.side_a.assign(order.begin(), order.begin() + split);
    w.side_b.assign(order.begin() + split, order.end());
    std::sort(w.side_a.begin(), w.side_a.end());
    std::sort(w.side_b.begin(), w.side_b.end());
    w.from = when(rng);
    w.until = truncated(w.from, options.mean_partition_duration);
    partitions.push_back(std::move(w));
  }

  PoissonCount gray_count(options.gray_rate);
  for (int node = 0; node < num_nodes; ++node) {
    const int count = gray_count(rng);
    for (int i = 0; i < count; ++i) {
      GrayWindow w;
      w.node = node;
      w.from = when(rng);
      w.until = truncated(w.from, options.mean_gray_duration);
      w.factor = options.gray_factor;
      gray.push_back(w);
    }
  }

  FaultSchedule schedule(std::move(crashes), std::move(partitions),
                         std::move(gray));
  QP_INVARIANT(schedule.max_node() < num_nodes,
               "random_fault_schedule: generated node id out of range");
  return schedule;
}

}  // namespace qp::sim
