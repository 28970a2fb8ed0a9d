#include "analyze/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "check/contracts.hpp"
#include "core/evaluators.hpp"
#include "obs/obs.hpp"
#include "quorum/intersection.hpp"

namespace qp::obs {

namespace {

/// Absolute + relative floating-point slack of the delay comparisons, and
/// absolute slack of the load comparison.
constexpr double kTolerance = 1e-9;

/// Net-only access delay reconstructed from the probe records: the paper's
/// delta_f(v, Q) (parallel: slowest probe) or gamma_f(v, Q) (sequential:
/// sum of probe legs). Queue waits are deliberately excluded so the value
/// estimates the quantity the analytic model bounds even when the
/// simulation ran with a finite service rate.
double net_delay(const AccessRecord& record, bool sequential) {
  double value = 0.0;
  for (const AccessProbe& probe : record.probes) {
    if (sequential) {
      value += probe.net_delay;
    } else {
      value = std::max(value, probe.net_delay);
    }
  }
  return value;
}

/// Expected net delay of `client` under the strategy: Delta_f(v) /
/// Gamma_f(v), with every probe path routed through `relay` when >= 0
/// (Lemma 3.1's access model, eq. (4)).
double analytic_delay(const core::QppInstance& instance,
                      const core::Placement& placement, int client,
                      bool sequential, int relay) {
  const graph::Metric& metric = instance.metric();
  double expected = 0.0;
  for (int q = 0; q < instance.system().num_quorums(); ++q) {
    double per_quorum = 0.0;
    for (const int element : instance.system().quorum(q)) {
      const int node = placement[static_cast<std::size_t>(element)];
      const double path = relay >= 0
                              ? metric(client, relay) + metric(relay, node)
                              : metric(client, node);
      if (sequential) {
        per_quorum += path;
      } else {
        per_quorum = std::max(per_quorum, path);
      }
    }
    expected += instance.strategy().probability(q) * per_quorum;
  }
  return expected;
}

struct RunningStat {
  std::int64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void add(double value) {
    ++count;
    sum += value;
    sum_sq += value * value;
  }
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Sample standard deviation (n - 1 denominator); 0 below 2 samples.
  double stddev() const {
    if (count < 2) return 0.0;
    const double n = static_cast<double>(count);
    const double variance =
        std::max(0.0, (sum_sq - sum * sum / n) / (n - 1.0));
    return std::sqrt(variance);
  }
  double half_width(double z) const {
    return count > 0 ? z * stddev() / std::sqrt(static_cast<double>(count))
                     : 0.0;
  }
};

double context_number(const ParsedAccessLog& log, const std::string& key,
                      double fallback) {
  const std::string raw = log.context_or(key, "");
  if (raw.empty()) return fallback;
  try {
    return std::stod(raw);
  } catch (const std::exception&) {
    return fallback;
  }
}

/// Reads one side's counter object into `out`; "" or the error naming the
/// offending counter.
std::string read_counters(const json::Value* counters, const char* side,
                          const std::string& path,
                          std::map<std::string, std::uint64_t>& out) {
  if (counters == nullptr) return "";
  // 2^53: every integer up to here is exact in a double, and the cast to
  // uint64 below is defined.
  constexpr double kMaxExact = 9007199254740992.0;
  for (const auto& [name, value] : counters->object) {
    const double number = value.number;
    if (value.type != json::Value::Type::kNumber || !(number >= 0.0) ||
        number > kMaxExact || std::floor(number) != number) {
      std::ostringstream message;
      message << "counter '" << name << "'";
      if (!path.empty()) message << " at '" << path << "'";
      message << " in the " << side << " document is ";
      if (value.type == json::Value::Type::kNumber) {
        message << number;
      } else {
        message << "not a number";
      }
      message << ", not an integer in [0, 2^53]; not comparable";
      return message.str();
    }
    out[name] = static_cast<std::uint64_t>(number);
  }
  return "";
}

/// `report[half][key]`, or nullptr when either level is absent.
const json::Value* section(const json::Value& report, const char* half,
                           const char* key) {
  const json::Value* outer = report.find(half);
  return outer != nullptr ? outer->find(key) : nullptr;
}

const json::Value* deterministic_counters(const json::Value& report) {
  const json::Value* counters = section(report, "deterministic", "counters");
  return counters != nullptr && counters->is_object() ? counters : nullptr;
}

bool report_obs_off(const json::Value& report) {
  if (const json::Value* context = report.find("context")) {
    return context->get_string("obs_compiled_in", "true") == "false";
  }
  return false;
}

/// Every key of either object (nullptr reads as empty), sorted.
std::set<std::string> key_union(const json::Value* base,
                                const json::Value* cand) {
  std::set<std::string> keys;
  for (const json::Value* object : {base, cand}) {
    if (object == nullptr) continue;
    for (const auto& [key, value] : object->object) keys.insert(key);
  }
  return keys;
}

/// The label of the profile tree's root in diff paths; other nodes are
/// their "/"-joined span names.
constexpr const char* kProfileRoot = "(root)";

using ProfileNodes = std::map<std::string, const json::Value*>;

void flatten_profile(const json::Value& node, const std::string& path,
                     ProfileNodes& out) {
  out[path] = &node;
  const json::Value* children = node.find("children");
  if (children == nullptr || !children->is_object()) return;
  for (const auto& [name, child] : children->object) {
    flatten_profile(child, path == kProfileRoot ? name : path + "/" + name,
                    out);
  }
}

/// One half's profile tree (`report[half].profile`) as path -> node; empty
/// when the report carries no tree.
ProfileNodes profile_nodes(const json::Value& report, const char* half) {
  ProfileNodes out;
  if (const json::Value* root = section(report, half, "profile");
      root != nullptr && root->is_object()) {
    flatten_profile(*root, kProfileRoot, out);
  }
  return out;
}

}  // namespace

AccessLogAnalysis analyze_access_log(const core::QppInstance& instance,
                                     const core::Placement& placement,
                                     const ParsedAccessLog& log,
                                     const AnalyzeOptions& options,
                                     const sim::FaultSchedule* faults) {
  const int n = instance.num_nodes();
  if (!core::is_valid_placement(placement, instance.system().universe_size(),
                                n)) {
    throw std::invalid_argument("analyze_access_log: invalid placement");
  }
  const std::int64_t min_samples = std::max<std::int64_t>(2, options.min_samples);

  AccessLogAnalysis analysis;
  analysis.sequential = log.context_or("mode", "parallel") == "sequential";
  analysis.relay = static_cast<int>(context_number(log, "relay", -1.0));
  analysis.jitter = context_number(log, "jitter", 0.0);
  analysis.service_rate = context_number(log, "service_rate", 0.0);
  if (analysis.relay >= n) {
    throw std::invalid_argument("analyze_access_log: relay out of range");
  }
  analysis.faulty = !log.context_or("fault_digest", "").empty();

  std::vector<RunningStat> per_client(static_cast<std::size_t>(n));
  std::vector<std::int64_t> per_node_probes(static_cast<std::size_t>(n), 0);
  std::map<int, RunningStat> per_quorum;
  RunningStat overall;
  RunningStat wall;
  RunningStat waits;

  for (const AccessRecord& record : log.records) {
    if (record.client < 0 || record.client >= n) {
      throw std::invalid_argument("analyze_access_log: client out of range");
    }
    if (record.quorum < 0 ||
        record.quorum >= instance.system().num_quorums()) {
      throw std::invalid_argument("analyze_access_log: quorum out of range");
    }
    if (record.outcome != AccessOutcome::kOk || record.attempts > 1) {
      analysis.faulty = true;
    }
    analysis.total_retries += record.attempts - 1;
    wall.add(record.finish - record.start);
    if (record.outcome == AccessOutcome::kOk) {
      ++analysis.ok_accesses;
      // Delay statistics only over successes: a failed access has no
      // delta/gamma, and its final attempt carries net_delay = -1
      // sentinels for unanswered probes.
      const double value = net_delay(record, analysis.sequential);
      per_client[static_cast<std::size_t>(record.client)].add(value);
      per_quorum[record.quorum].add(value);
      overall.add(value);
    } else {
      ++analysis.failed_accesses;
      if (record.outcome == AccessOutcome::kUnavailable) {
        ++analysis.unavailable_accesses;
      }
    }
    for (const AccessProbe& probe : record.probes) {
      if (probe.node < 0 || probe.node >= n) {
        throw std::invalid_argument("analyze_access_log: node out of range");
      }
      if (probe.net_delay < 0.0) continue;  // dropped: never reached a node
      ++per_node_probes[static_cast<std::size_t>(probe.node)];
      waits.add(probe.queue_wait);
      analysis.max_queue_wait =
          std::max(analysis.max_queue_wait, probe.queue_wait);
    }
  }

  analysis.total_accesses =
      analysis.ok_accesses + analysis.failed_accesses;
  analysis.availability =
      analysis.total_accesses > 0
          ? static_cast<double>(analysis.ok_accesses) /
                static_cast<double>(analysis.total_accesses)
          : 1.0;
  analysis.wall_mean = wall.mean();
  analysis.mean_queue_wait = waits.mean();

  // A parallel access's max-of-jittered-probes is biased above the
  // analytic max (docs/OBSERVABILITY.md); sums stay mean-preserving, so
  // the sequential check survives jitter. Fault injection biases BOTH
  // modes: re-selection skews the quorum mix away from the strategy and
  // gray windows inflate net delays, so faulty logs skip the CI checks
  // and are validated against the schedule instead.
  const bool estimator_unbiased =
      (analysis.sequential || analysis.jitter == 0.0) && !analysis.faulty;

  // Per-client empirical Delta/Gamma vs the evaluator.
  for (int v = 0; v < n; ++v) {
    const RunningStat& stat = per_client[static_cast<std::size_t>(v)];
    if (stat.count == 0) continue;
    ClientCheck check;
    check.client = v;
    check.count = stat.count;
    check.empirical_mean = stat.mean();
    check.half_width = stat.half_width(options.z);
    check.analytic = analytic_delay(instance, placement, v,
                                    analysis.sequential, analysis.relay);
    check.checked = estimator_unbiased && stat.count >= min_samples;
    if (check.checked) {
      const double slack = check.half_width + kTolerance +
                           kTolerance * std::abs(check.analytic);
      check.ok = std::abs(check.empirical_mean - check.analytic) <= slack;
      ++analysis.clients_checked;
      if (check.ok) ++analysis.clients_ok;
    }
    analysis.clients.push_back(check);
  }

  // Overall weighted objective: accesses arrive proportionally to client
  // weights, so the plain mean estimates Avg_v Delta_f(v) directly.
  analysis.overall_mean = overall.mean();
  analysis.overall_half_width = overall.half_width(options.z);
  if (analysis.relay < 0) {
    analysis.overall_analytic =
        analysis.sequential ? core::average_total_delay(instance, placement)
                            : core::average_max_delay(instance, placement);
  } else {
    double weighted = 0.0;
    for (int v = 0; v < n; ++v) {
      weighted += instance.client_weights()[static_cast<std::size_t>(v)] *
                  analytic_delay(instance, placement, v, analysis.sequential,
                                 analysis.relay);
    }
    analysis.overall_analytic = weighted;
  }
  analysis.overall_checked =
      estimator_unbiased && overall.count >= min_samples;
  if (analysis.overall_checked) {
    const double slack = analysis.overall_half_width + kTolerance +
                         kTolerance * std::abs(analysis.overall_analytic);
    analysis.overall_ok =
        std::abs(analysis.overall_mean - analysis.overall_analytic) <= slack;
  }

  // Per-node observed load vs the certificate bound (alpha+1) * cap(v).
  const std::vector<double> analytic_loads = core::node_loads(
      instance.element_loads(), placement, n);
  for (int v = 0; v < n; ++v) {
    NodeCheck check;
    check.node = v;
    check.probes = per_node_probes[static_cast<std::size_t>(v)];
    check.observed_load =
        analysis.total_accesses > 0
            ? static_cast<double>(check.probes) /
                  static_cast<double>(analysis.total_accesses)
            : 0.0;
    check.analytic_load = analytic_loads[static_cast<std::size_t>(v)];
    check.capacity = instance.capacity(v);
    check.bound = (options.alpha + 1.0) * check.capacity *
                  (1.0 + options.load_slack);
    // The certificate bound is about the failure-free strategy mix;
    // retries inflate probe counts, so faulty logs report loads without
    // gating them.
    check.ok = analysis.faulty ||
               check.observed_load <= check.bound + kTolerance;
    if (!check.ok) analysis.loads_ok = false;
    analysis.nodes.push_back(check);
  }

  for (const auto& [q, stat] : per_quorum) {
    QuorumBreakdown breakdown;
    breakdown.quorum = q;
    breakdown.count = stat.count;
    breakdown.share = analysis.total_accesses > 0
                          ? static_cast<double>(stat.count) /
                                static_cast<double>(analysis.total_accesses)
                          : 0.0;
    breakdown.strategy_probability = instance.strategy().probability(q);
    breakdown.mean_delay = stat.mean();
    analysis.quorums.push_back(breakdown);
  }

  // ---- fault-schedule cross-checks (docs/SIMULATION.md) ----
  if (faults != nullptr) {
    analysis.faults_checked = true;
    const auto flag = [&](const AccessRecord& record,
                          const std::string& what) {
      ++analysis.fault_violations;
      if (analysis.fault_findings.size() < 16) {
        analysis.fault_findings.push_back(
            "access " + std::to_string(record.id) + " (client " +
            std::to_string(record.client) + "): " + what);
      }
    };
    const double timeout = context_number(log, "timeout", 0.0);
    const int max_attempts =
        static_cast<int>(context_number(log, "retries", 0.0));
    // Worst fault-free attempt across every client/quorum pair: its
    // slowest probe in parallel mode, its whole probe chain in sequential
    // mode (the deadline covers the chain). When the configured timeout
    // exceeds it, a fault-free attempt can never time out, so every
    // retry/failure MUST overlap an active fault window. (With a tighter
    // timeout, jitter alone can cause retries and the window check would
    // report false positives, so it is skipped. So it is at equality: a
    // reply due exactly at the deadline ties with it, and the engine
    // orders tied events by its heap, not by kind.)
    const graph::Metric& metric = instance.metric();
    double worst_attempt = 0.0;
    for (int v = 0; v < n; ++v) {
      for (int q = 0; q < instance.system().num_quorums(); ++q) {
        double attempt = 0.0;
        for (const int element : instance.system().quorum(q)) {
          const int node = placement[static_cast<std::size_t>(element)];
          const double path =
              analysis.relay >= 0
                  ? metric(v, analysis.relay) + metric(analysis.relay, node)
                  : metric(v, node);
          attempt = analysis.sequential ? attempt + path
                                        : std::max(attempt, path);
        }
        worst_attempt = std::max(worst_attempt, attempt);
      }
    }
    worst_attempt *= 1.0 + analysis.jitter;
    const bool retries_imply_faults =
        timeout > 0.0 && timeout > worst_attempt &&
        analysis.service_rate <= 0.0;
    for (const AccessRecord& record : log.records) {
      if (max_attempts > 0 && record.attempts > max_attempts) {
        flag(record, "has " + std::to_string(record.attempts) +
                         " attempts, above the configured maximum of " +
                         std::to_string(max_attempts));
      }
      if (record.outcome == AccessOutcome::kTimeout && max_attempts > 0 &&
          record.attempts != max_attempts) {
        flag(record, "timed out after " + std::to_string(record.attempts) +
                         " attempts instead of the configured " +
                         std::to_string(max_attempts));
      }
      if (retries_imply_faults &&
          (record.attempts > 1 || record.outcome != AccessOutcome::kOk) &&
          !faults->any_active(record.start, record.finish)) {
        flag(record,
             "retried or failed outside every fault window, yet the "
             "timeout exceeds the worst fault-free attempt");
      }
      if (record.outcome == AccessOutcome::kUnavailable) {
        // The verdict time is record.finish: re-derive the live set there
        // and demand genuine unavailability.
        const quorum::LivenessReport report = quorum::check_liveness(
            instance.system(),
            faults->failed_elements(placement, record.client,
                                    record.finish));
        if (report.available()) {
          flag(record,
               "was declared unavailable although " +
                   std::to_string(report.live_quorums.size()) +
                   " quorums were live at the verdict time");
        }
      }
    }
    QP_COUNTER_ADD("analyze.fault_checked_records",
                   static_cast<std::int64_t>(log.records.size()));
    QP_COUNTER_ADD("analyze.fault_violations", analysis.fault_violations);
  }

  QP_COUNTER_ADD("analyze.access_log_records", analysis.total_accesses);
  return analysis;
}

double CounterDiff::rel_drift() const {
  if (in_base != in_cand) {
    const std::uint64_t present = in_base ? base : cand;
    return present == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const double b = static_cast<double>(base);
  const double c = static_cast<double>(cand);
  return std::fabs(c - b) / std::max(b, 1.0);
}

std::string compare_counters(const json::Value* base, const json::Value* cand,
                             const std::string& path,
                             std::vector<CounterDiff>& out) {
  std::map<std::string, std::uint64_t> base_values;
  std::map<std::string, std::uint64_t> cand_values;
  std::string error = read_counters(base, "base", path, base_values);
  if (error.empty()) {
    error = read_counters(cand, "candidate", path, cand_values);
  }
  if (!error.empty()) return error;

  std::set<std::string> names;
  for (const auto& [name, value] : base_values) names.insert(name);
  for (const auto& [name, value] : cand_values) names.insert(name);
  for (const std::string& name : names) {
    CounterDiff entry;
    entry.path = path;
    entry.name = name;
    const auto in_base = base_values.find(name);
    const auto in_cand = cand_values.find(name);
    entry.in_base = in_base != base_values.end();
    entry.in_cand = in_cand != cand_values.end();
    if (entry.in_base) entry.base = in_base->second;
    if (entry.in_cand) entry.cand = in_cand->second;
    out.push_back(std::move(entry));
  }
  return "";
}

std::string digest_mismatch(const json::Value& base, const json::Value& cand) {
  const auto digest = [](const json::Value& doc) {
    const json::Value* context = doc.find("context");
    return context != nullptr ? context->get_string("instance_digest", "")
                              : std::string();
  };
  const std::string digest_base = digest(base);
  const std::string digest_cand = digest(cand);
  if (digest_base.empty() || digest_cand.empty() ||
      digest_base == digest_cand) {
    return "";
  }
  return "instance digests differ (" + digest_base + " vs " + digest_cand +
         "); refusing to compare different instances";
}

double ReportDiff::max_deterministic_drift() const {
  if (!structure.empty()) return std::numeric_limits<double>::infinity();
  double drift = 0.0;
  for (const CounterDiff& counter : counters) {
    drift = std::max(drift, counter.rel_drift());
  }
  for (const SeriesDiff& entry : series) {
    if (!entry.equal || entry.in_base != entry.in_cand) {
      return std::numeric_limits<double>::infinity();
    }
  }
  for (const HistogramDiff& entry : histograms) {
    if (entry.schema_drift()) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return drift;
}

ReportDiff diff_run_reports(const json::Value& base, const json::Value& cand) {
  constexpr const char* kSchema = "qplace.run_report.v2";
  ReportDiff diff;
  const std::string schema_base = base.get_string("schema", "");
  const std::string schema_cand = cand.get_string("schema", "");
  if (schema_base != kSchema || schema_cand != kSchema) {
    diff.error = std::string("not a ") + kSchema + " document (schema \"" +
                 schema_base + "\" vs \"" + schema_cand + "\")";
    return diff;
  }
  const json::Value* base_counters = deterministic_counters(base);
  const json::Value* cand_counters = deterministic_counters(cand);
  if (base_counters == nullptr || cand_counters == nullptr) {
    diff.error = std::string(kSchema) + " document without "
                 "deterministic.counters";
    return diff;
  }
  diff.error = digest_mismatch(base, cand);
  if (diff.error.empty()) {
    diff.error = compare_counters(base_counters, cand_counters, "",
                                  diff.counters);
  }
  if (!diff.error.empty()) return diff;

  // The profile tree, node by node: a path on one side only is structural
  // drift; the counters of a shared path go through the same comparator as
  // the flat totals, tagged with the path.
  const auto base_nodes = profile_nodes(base, "deterministic");
  const auto cand_nodes = profile_nodes(cand, "deterministic");
  std::set<std::string> paths;
  for (const auto& [path, node] : base_nodes) paths.insert(path);
  for (const auto& [path, node] : cand_nodes) paths.insert(path);
  for (const std::string& path : paths) {
    const auto in_base = base_nodes.find(path);
    const auto in_cand = cand_nodes.find(path);
    if (in_base == base_nodes.end() || in_cand == cand_nodes.end()) {
      diff.structure.push_back(
          {path, in_base != base_nodes.end(), in_cand != cand_nodes.end()});
      continue;
    }
    const std::string error =
        compare_counters(in_base->second->find("counters"),
                         in_cand->second->find("counters"), path,
                         diff.counters);
    if (!error.empty()) {
      ReportDiff refused;
      refused.error = error;
      return refused;
    }
  }
  diff.obs_off_base = report_obs_off(base);
  diff.obs_off_cand = report_obs_off(cand);

  // Series: exact element-wise equality, the same contract the metamorphic
  // suite enforces in-process.
  const json::Value* base_series = section(base, "deterministic", "series");
  const json::Value* cand_series = section(cand, "deterministic", "series");
  for (const std::string& name : key_union(base_series, cand_series)) {
    SeriesDiff entry;
    entry.name = name;
    const json::Value* in_base =
        base_series != nullptr ? base_series->find(name) : nullptr;
    const json::Value* in_cand =
        cand_series != nullptr ? cand_series->find(name) : nullptr;
    entry.in_base = in_base != nullptr;
    entry.in_cand = in_cand != nullptr;
    entry.equal = in_base != nullptr && in_cand != nullptr &&
                  std::equal(in_base->array.begin(), in_base->array.end(),
                             in_cand->array.begin(), in_cand->array.end(),
                             [](const json::Value& a, const json::Value& b) {
                               return a.number == b.number;
                             });
    diff.series.push_back(entry);
  }

  // Histograms: distribution-shape shift (counts, mean, quantiles).
  const json::Value* base_hists =
      section(base, "deterministic", "histograms");
  const json::Value* cand_hists =
      section(cand, "deterministic", "histograms");
  for (const std::string& name : key_union(base_hists, cand_hists)) {
    HistogramDiff entry;
    entry.name = name;
    // Empty histograms render mean/quantiles as null (histogram.cpp); a
    // null side keeps the numeric fields at 0 and sets the null flag, and
    // null-vs-number gates as schema drift (HistogramDiff::schema_drift).
    const auto quantiles_null = [](const json::Value& h) {
      const json::Value* mean = h.find("mean");
      return mean != nullptr && mean->is_null();
    };
    if (const json::Value* h =
            base_hists != nullptr ? base_hists->find(name) : nullptr) {
      entry.count_base = h->get_number("count", 0.0);
      entry.null_base = quantiles_null(*h);
      if (!entry.null_base) {
        entry.mean_base = h->get_number("mean", 0.0);
        entry.p50_base = h->get_number("p50", 0.0);
        entry.p90_base = h->get_number("p90", 0.0);
        entry.p99_base = h->get_number("p99", 0.0);
      }
    }
    if (const json::Value* h =
            cand_hists != nullptr ? cand_hists->find(name) : nullptr) {
      entry.count_cand = h->get_number("count", 0.0);
      entry.null_cand = quantiles_null(*h);
      if (!entry.null_cand) {
        entry.mean_cand = h->get_number("mean", 0.0);
        entry.p50_cand = h->get_number("p50", 0.0);
        entry.p90_cand = h->get_number("p90", 0.0);
        entry.p99_cand = h->get_number("p99", 0.0);
      }
    }
    diff.histograms.push_back(entry);
  }

  // Per-node wall time: reported for every path on both sides, never
  // gated (a one-sided path is already structural drift).
  const auto base_walls = profile_nodes(base, "nondeterministic");
  const auto cand_walls = profile_nodes(cand, "nondeterministic");
  for (const auto& [path, node] : base_walls) {
    const auto other = cand_walls.find(path);
    if (other == cand_walls.end()) continue;
    diff.walls.push_back({path, node->get_number("calls", 0.0),
                          other->second->get_number("calls", 0.0),
                          node->get_number("total_ms", 0.0),
                          other->second->get_number("total_ms", 0.0)});
  }

  // Resources (peak RSS, page faults): wall-class -- a report from a
  // non-POSIX build simply has no "resources" object, and a missing side
  // is reported as 0 rather than gating anything.
  const json::Value* base_res = section(base, "nondeterministic", "resources");
  const json::Value* cand_res = section(cand, "nondeterministic", "resources");
  for (const std::string& name : key_union(base_res, cand_res)) {
    ResourceDiff entry;
    entry.name = name;
    if (base_res != nullptr) entry.base = base_res->get_number(name, 0.0);
    if (cand_res != nullptr) entry.cand = cand_res->get_number(name, 0.0);
    diff.resources.push_back(entry);
  }
  return diff;
}

}  // namespace qp::obs
