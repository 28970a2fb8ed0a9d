/// qplace -- command-line driver for the quorum placement library.
///
///   qplace topology --topology waxman --nodes 20 --seed 1      # DOT output
///   qplace analyze  --system majority --n 7 --t 4 --p 0.1      # quorum metrics
///   qplace analyze  --access-log LOG --system grid --k 2 ...   # replay a log
///   qplace analyze  --diff A.json --against B.json             # report diff
///   qplace solve    --system grid --k 2 --topology geometric
///                   --nodes 16 --algorithm qpp --alpha 2 --cap 1.0 [--dot]
///   qplace simulate --system grid --k 2 --topology waxman --nodes 16
///                   --duration 1000 [--service-rate 20] [--access-log LOG]
///   qplace check    --system grid --k 2 --topology geometric --nodes 16
///                   --algorithm qpp --alpha 2                # certify bounds
///
/// `solve` algorithms: qpp (Thm 1.2), ssqpp (Thm 3.7, needs --source),
/// total (Thm 5.1), grid (Thm 1.3 via Sec 4.1), majority (Thm 1.3 via
/// Sec 4.2). Capacities are uniform: --cap multiplies the max element load.
///
/// `check` solves like `solve` (one algorithm table; grid has no
/// certificate), then re-derives the LP lower bounds and verifies every
/// reported approximation guarantee (Thm 1.2 / Thm 3.7 / Thm 5.1 / Eq. (19))
/// with check::check_certificate. Exit code 0 iff the whole certificate holds.
///
/// `analyze --access-log` rebuilds the instance and placement from the same
/// flags the `simulate` run used (both place with the qpp entry at its
/// defaults), replays the logged accesses, and cross-checks empirical
/// Delta_f / Gamma_f and observed per-node load against the analytic
/// evaluators and the certificate's (alpha+1)-cap bound.
/// `analyze --diff A --against B` structurally diffs two run reports
/// (counter deltas, flat and per profile node, gated by --tolerance; wall
/// times reported but never gated) -- the work-counter regression gate
/// (ctest cli_counter_gate, docs/OBSERVABILITY.md §7).

#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/certificate.hpp"
#include "check/validate.hpp"
#include "cli/options.hpp"
#include "exec/thread_pool.hpp"
#include "obs/access_log.hpp"
#include "analyze/analyze.hpp"
#include "analyze/trace_check.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "core/evaluators.hpp"
#include "core/majority_layout.hpp"
#include "core/placement_report.hpp"
#include "core/qpp_solver.hpp"
#include "core/specialized.hpp"
#include "core/ssqpp_solver.hpp"
#include "core/total_delay.hpp"
#include "graph/metric.hpp"
#include "quorum/analysis.hpp"
#include "quorum/constructions.hpp"
#include "report/export.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"

// Stamped into every run report so `analyze --diff` can tell which build
// produced a baseline. tools/CMakeLists.txt captures it at configure time.
#ifndef QPLACE_GIT_SHA
#define QPLACE_GIT_SHA "unknown"
#endif

namespace {

using namespace qp;

/// Most samples one `simulate --series-out` run may stream: the bound on
/// duration / --telemetry-interval.
constexpr double kMaxTelemetrySamples = 4096;

int usage() {
  std::cout <<
      "usage: qplace <command> [flags]\n"
      "commands:\n"
      "  topology   generate a topology and print Graphviz DOT\n"
      "  analyze    quorum-system quality metrics (load, FT, availability);\n"
      "             with --access-log FILE: replay a simulator access log\n"
      "             against the analytic model (needs the simulate flags;\n"
      "             add --faults FILE to cross-check retries/availability\n"
      "             against the fault schedule that drove the run);\n"
      "             with --diff A --against B [--tolerance T]: structured\n"
      "             run-report diff, exit 1 on deterministic counter drift\n"
      "             (flat or per profile node; wall times reported only)\n"
      "  solve      place a quorum system on a topology\n"
      "  simulate   message-level simulation of a solved placement\n"
      "             (--warmup W --jitter J --relay route via Thm 1.2 v0);\n"
      "             fault injection (docs/SIMULATION.md): --faults FILE\n"
      "             (qplace.faults.v1 schedule) --timeout T (attempt\n"
      "             deadline) --retries K (max attempts) --backoff B\n"
      "             (exponential backoff base, capped by --backoff-cap)\n"
      "             --availability-bucket W (availability series width)\n"
      "  check      solve, then verify the certified bounds "
      "(Thm 1.2/3.7/5.1, Eq. 19)\n"
      "common flags: --system --topology --nodes --seed --threads N\n"
      "              (--threads: solver thread pool size; defaults to the\n"
      "               QPLACE_THREADS env var, else hardware concurrency;\n"
      "               results are identical for every N -- docs/PARALLEL.md)\n"
      "observability (docs/OBSERVABILITY.md):\n"
      "  --stats-out FILE  write a qplace.run_report.v2 JSON run report\n"
      "                    (solver counters, series, histograms and the\n"
      "                    span call tree: per-node counter attribution,\n"
      "                    byte-identical for any --threads, and per-node\n"
      "                    wall time)\n"
      "  --trace-out FILE  record phase spans and write Chrome trace_event\n"
      "                    JSON loadable in chrome://tracing or Perfetto\n"
      "  --profile-folded FILE  write the span call tree as folded stacks\n"
      "                    for flamegraph renderers\n"
      "  --access-log FILE (simulate) write one qplace.access_log.v2 JSONL\n"
      "                    record per resolved access; sampling via\n"
      "                    --access-log-sample R (keep fraction R) and\n"
      "                    --access-log-head N (first N records)\n"
      "live telemetry (docs/OBSERVABILITY.md, \"Live telemetry\"):\n"
      "  --series-out FILE (simulate) stream qplace.timeseries.v2 JSONL:\n"
      "                    one registry snapshot per line, appended as it\n"
      "                    is sampled on a deterministic sim-time grid\n"
      "                    (tail -f is the live view), every\n"
      "                    --telemetry-interval sim units (default\n"
      "                    duration/100; at most 4096 samples per run)\n"
      "  --progress        (simulate) redraw a live progress line on\n"
      "                    stderr: %% done, accesses/s, availability, p99\n"
      "                    vs the analytic mean-delay bound\n"
      "  --trace FILE      (analyze) reconcile the causal sim-time access\n"
      "                    spans of a recorded Chrome trace against\n"
      "                    --access-log FILE; exit 1 on any mismatch\n";
  return 2;
}

/// --stats-out / --trace-out / --profile-folded plumbing: tracing and the
/// profile collector are switched on before the command runs; artifacts are
/// written after it returns.
class ObsSession {
 public:
  ObsSession(const cli::ParsedArgs& args, int threads)
      : stats_path_(args.get("stats-out", "")),
        trace_path_(args.get("trace-out", "")),
        folded_path_(args.get("profile-folded", "")),
        report_(args.command()) {
    report_.set_context("threads", std::to_string(threads));
    report_.set_context("git_sha", QPLACE_GIT_SHA);
    // Stamped even (especially) when false: `analyze --diff` uses it to
    // warn instead of silently diffing structurally empty counter maps.
    report_.set_context("obs_compiled_in",
                        obs::compiled_in() ? "true" : "false");
    for (const auto& [name, value] : args.raw_flags()) {
      report_.set_context("flag." + name, value);
    }
    if (!trace_path_.empty()) {
      obs::TraceRecorder::instance().set_enabled(true);
    }
    if (profiled()) {
      obs::ProfileCollector::instance().clear();
      obs::ProfileCollector::instance().set_enabled(true);
    }
  }

  obs::RunReport& report() { return report_; }

  /// Writes the requested artifacts. \throws std::runtime_error on I/O
  /// failure (surfaced as exit code 2 by main's handler).
  void finish() {
    if (!trace_path_.empty()) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
      recorder.set_enabled(false);
      // A full ring silently overwrites the oldest events, which then look
      // like missing spans to `analyze --trace` -- say so out loud and stamp
      // the counts into the run report (nondeterministic: event *capacity*
      // pressure depends on thread count and ring sharing, not on the run's
      // deterministic state).
      const std::uint64_t dropped = recorder.dropped_count();
      if (dropped > 0) {
        std::cerr << "warning: trace ring overflow: " << dropped
                  << " events dropped (oldest overwritten; per-thread "
                     "capacity "
                  << obs::TraceRecorder::kRingCapacity
                  << ") -- `analyze --trace` will report missing spans\n";
      }
      report_.add_nondeterministic_json(
          "trace",
          "{\"events\": " + std::to_string(recorder.event_count()) +
              ", \"dropped\": " + std::to_string(dropped) + "}");
      obs::write_file(trace_path_, recorder.to_chrome_json());
    }
    if (profiled()) obs::ProfileCollector::instance().set_enabled(false);
    if (!folded_path_.empty()) {
      obs::write_file(folded_path_,
                      obs::ProfileCollector::instance()
                          .fold(obs::Registry::instance().counter_names())
                          .folded());
    }
    if (!stats_path_.empty()) {
      report_.add_nondeterministic_json("pool", exec::pool_stats_json());
      obs::write_file(stats_path_, report_.to_json());
    }
  }

 private:
  bool profiled() const {
    return !stats_path_.empty() || !folded_path_.empty();
  }

  std::string stats_path_;
  std::string trace_path_;
  std::string folded_path_;
  obs::RunReport report_;
};

/// Dispatch entry: a command name, or the flag selecting an analyze mode.
/// The handler's \p session collects run-report context and histograms.
using Handler = int (*)(const cli::ParsedArgs& args, ObsSession& session);
struct Route {
  const char* key;
  Handler run;
};

/// Uniform capacities: --cap (default 1.2) times the max element load.
std::vector<double> capacities_for(const cli::ParsedArgs& args,
                                   const quorum::QuorumSystem& system,
                                   const quorum::AccessStrategy& strategy,
                                   int nodes) {
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  double max_load = 0.0;
  for (double l : loads) max_load = std::max(max_load, l);
  return std::vector<double>(static_cast<std::size_t>(nodes),
                             args.get_double("cap", 1.2) * max_load);
}

/// The instance every placement command works on, built deterministically
/// from the flags (--system/--topology/--nodes/--seed/--cap): the same
/// flags always rebuild the same instance, which is what lets `analyze
/// --access-log` re-derive the placement a `simulate` run used. Stamps the
/// instance content digest into the run-report context.
struct InstanceBundle {
  std::optional<graph::Graph> graph;  ///< held only when asked for (--dot)
  core::QppInstance instance;
  std::string digest;  ///< core::instance_digest_hex(instance)
};

/// With `gap_lp`, the command solves the Thm 5.1 GAP LP on the instance, so
/// its dense tableau must fit the allocation budget too. The graph is freed
/// once the metric is built unless `keep_graph`: on dense topologies it is
/// about as large as the metric.
InstanceBundle build_instance(const cli::ParsedArgs& args, ObsSession& session,
                              bool gap_lp = false, bool keep_graph = false) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  // Sizes are refused (exit 2) before the graph is built where the flags
  // give its node count, and once a --graph-file is read. The metric is
  // checked before the quorum system is built too: --k sizes both the grid
  // and the mesh, torus and broom topologies.
  const std::optional<std::int64_t> nodes = cli::topology_nodes(args);
  if (nodes) cli::require_metric_fits(*nodes);
  const quorum::QuorumSystem system = cli::make_system(args);
  if (nodes) {
    cli::require_instance_fits(*nodes, system.universe_size(), gap_lp);
  }
  graph::Graph g = cli::make_topology(args, rng);
  cli::require_instance_fits(g.num_nodes(), system.universe_size(), gap_lp);
  graph::Metric metric = graph::Metric::from_graph(g);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const std::vector<double> caps =
      capacities_for(args, system, strategy, g.num_nodes());
  core::QppInstance instance(std::move(metric), caps, system, strategy);
  std::string digest = core::instance_digest_hex(instance);
  session.report().set_context("instance_digest", digest);
  std::optional<graph::Graph> kept;
  if (keep_graph) kept = std::move(g);
  return InstanceBundle{std::move(kept), std::move(instance),
                        std::move(digest)};
}

/// A placement as `solve` prints it and `check` certifies it.
struct Solution {
  core::Placement placement;
  std::string detail;   ///< `solve`'s note after the algorithm name
  int relay = -1;       ///< the Thm 1.2 relay v0 (qpp)
  double alpha = 2.0;   ///< the alpha solved with (qpp, ssqpp)
  std::string claim{};  ///< `check`'s claim line; empty without a certifier
  /// Certifies this very result; empty without a certifier.
  std::function<check::Certificate(const check::CertificateOptions&)>
      certify{};
};

/// One --algorithm, declared once for every command that places.
struct Algorithm {
  const char* name;
  const char* infeasible;  ///< printed when no placement exists
  bool certified;          ///< place() attaches claim + certify
  /// Places on \p instance, reading only this algorithm's own flags.
  std::optional<Solution> (*place)(const core::QppInstance& instance,
                                   const cli::ParsedArgs& args);
  bool gap_lp = false;  ///< solves the Thm 5.1 GAP LP (see build_instance)
};

const Algorithm kAlgorithms[] = {
    {"qpp", "infeasible: no capacity-respecting fractional placement", true,
     [](const auto& instance, const auto& args) -> std::optional<Solution> {
       core::QppSolveOptions solve_options;
       solve_options.alpha = args.get_double("alpha", 2.0);
       auto result = core::solve_qpp(instance, solve_options);
       if (!result) return std::nullopt;
       const std::string relay =
           "relay v0 = " + std::to_string(result->chosen_source);
       return Solution{
           .placement = result->placement,
           .detail = relay,
           .relay = result->chosen_source,
           .alpha = solve_options.alpha,
           .claim = "Thm 1.2 (5a/(a-1)-approx, load <= (a+1) cap), " + relay,
           .certify = [&instance,
                       r = std::move(*result)](const auto& options) {
             return check::check_certificate(instance, r, options);
           }};
     }},
    {"ssqpp", "infeasible", true,
     [](const auto& instance, const auto& args) -> std::optional<Solution> {
       core::SsqppInstance view =
           core::single_source_view(instance, args.get_int("source", 0));
       const double alpha = args.get_double("alpha", 2.0);
       auto result = core::solve_ssqpp(view, alpha);
       if (!result) return std::nullopt;
       return Solution{
           .placement = result->placement,
           .detail = "Z* = " + report::Table::num(result->lp_objective, 4),
           .alpha = alpha,
           .claim = "Thm 3.7 (a/(a-1)-approx vs Z*, load <= (a+1) cap)",
           .certify = [view = std::move(view),
                       r = std::move(*result)](const auto& options) {
             return check::check_certificate(view, r, options);
           }};
     }},
    {"total", "infeasible", true,
     [](const auto& instance, const auto& /*args*/) -> std::optional<Solution> {
       auto result = core::solve_total_delay(instance);
       if (!result) return std::nullopt;
       return Solution{
           .placement = result->placement,
           .detail = "GAP LP = " + report::Table::num(result->lp_objective, 4),
           .claim = "Thm 5.1 (cost <= GAP LP <= OPT, load <= 2 cap)",
           .certify = [&instance,
                       r = std::move(*result)](const auto& options) {
             return check::check_certificate(instance, r, options);
           }};
     },
     /*gap_lp=*/true},
    {"grid", "infeasible: not enough capacity slots", false,
     [](const auto& instance, const auto& args) -> std::optional<Solution> {
       const auto result = core::solve_qpp_grid(instance, args.get_int("k", 3));
       if (!result) return std::nullopt;
       return Solution{result->placement,
                       "source = " + std::to_string(result->chosen_source)};
     }},
    {"majority", "infeasible: not enough capacity slots", true,
     [](const auto& instance, const auto& args) -> std::optional<Solution> {
       const int n = args.get_int("n", 5);
       const int t = args.get_int("t", n / 2 + 1);
       const auto result = core::solve_qpp_majority(instance, t);
       if (!result) return std::nullopt;
       const std::string source =
           "source = " + std::to_string(result->chosen_source);
       return Solution{
           .placement = result->placement,
           .detail = source,
           .claim =
               "Eq. (19) closed form + exact capacity respect (Thm 1.3), " +
               source,
           .certify = [&instance, r = *result, t](const auto& options) {
             // The Thm 1.3 result is the Sec 4.2 layout at its chosen
             // source: certify the printed placement there, against that
             // layout's Eq. (19) value.
             const core::SsqppInstance view =
                 core::single_source_view(instance, r.chosen_source);
             const core::MajorityLayoutResult printed{
                 r.placement, r.source_delay,
                 core::majority_layout(view, t).value().formula_delay};
             return check::check_certificate(view, printed, t, options);
           }};
     }},
};

/// The entry named \p name, or nullptr after a usage error listing the
/// names (only the certifiable ones when \p certified_only).
const Algorithm* find_algorithm(const std::string& name,
                                bool certified_only) {
  bool known = false;
  std::string names;
  for (const Algorithm& algorithm : kAlgorithms) {
    known = known || name == algorithm.name;
    if (certified_only && !algorithm.certified) continue;
    if (name == algorithm.name) return &algorithm;
    names += (names.empty() ? "" : "|") + std::string(algorithm.name);
  }
  std::cerr << (known ? "no certificate for" : "unknown") << " --algorithm '"
            << name << "' (" << names << ")\n";
  return nullptr;
}

/// Runs \p algorithm, printing its infeasible message when it finds no
/// placement.
std::optional<Solution> place(const Algorithm& algorithm,
                              const core::QppInstance& instance,
                              const cli::ParsedArgs& args) {
  std::optional<Solution> solution = algorithm.place(instance, args);
  if (!solution) std::cerr << algorithm.infeasible << "\n";
  return solution;
}

/// The placement `simulate` runs and `analyze --access-log` replays: the
/// qpp entry at its defaults, so both rebuild the same one.
std::optional<Solution> default_placement(const core::QppInstance& instance) {
  return place(*find_algorithm("qpp", /*certified_only=*/false), instance,
               cli::ParsedArgs("qpp", {}));
}

/// Reads and parses a whole JSON document: a run report (--diff) or a
/// Chrome trace (--trace).
obs::json::Value load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return obs::json::parse(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Reads and parses a `qplace.faults.v1` schedule file (--faults FLAG).
sim::FaultSchedule load_faults_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open fault schedule '" + path + "'");
  }
  return sim::load_fault_schedule(in);
}

int cmd_topology(const cli::ParsedArgs& args, ObsSession& /*session*/) {
  std::mt19937_64 rng(
      static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const graph::Graph g = cli::make_topology(args, rng);
  std::cout << report::to_dot(g);
  return 0;
}

/// `qplace analyze --access-log LOG <simulate flags>`: replay a recorded
/// access log against the analytic model. The instance and placement are
/// re-derived from the flags (both deterministic), digest-checked against
/// the log header, and the empirical Delta/Gamma and observed loads are
/// cross-checked against the evaluators and the certificate's load bound.
/// Exit 0 = all checks pass, 1 = a check failed, 2 = wrong instance.
int cmd_analyze_access_log(const cli::ParsedArgs& args,
                           ObsSession& session) {
  const std::string path = args.get("access-log", "");
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open access log '" << path << "'\n";
    return 2;
  }
  const obs::ParsedAccessLog log = obs::parse_access_log(in);

  const InstanceBundle bundle = build_instance(args, session);
  const std::string log_digest = log.context_or("instance_digest", "");
  if (!log_digest.empty() && log_digest != bundle.digest) {
    std::cerr << "error: instance digest mismatch: access log has "
              << log_digest << ", flags rebuild " << bundle.digest
              << " -- pass the same --system/--topology/--nodes/--seed/--cap "
                 "flags the simulate run used\n";
    return 2;
  }

  // The placement `qplace simulate` ran, so the one the log was recorded
  // for is reproduced exactly.
  const auto solved = default_placement(bundle.instance);
  if (!solved) return 1;

  // Optional fault schedule: digest-matched against the log header, then
  // handed to the analyzer for the retry/availability cross-checks.
  sim::FaultSchedule faults;
  const bool have_faults = !args.get("faults", "").empty();
  if (have_faults) {
    faults = load_faults_file(args.get("faults", ""));
    const std::string log_fault_digest = log.context_or("fault_digest", "");
    const std::string file_digest = sim::fault_schedule_digest(faults);
    if (!log_fault_digest.empty() && log_fault_digest != file_digest) {
      std::cerr << "error: fault schedule digest mismatch: access log has "
                << log_fault_digest << ", --faults file hashes to "
                << file_digest
                << " -- pass the same schedule the simulate run used\n";
      return 2;
    }
  }

  obs::AnalyzeOptions options;
  options.alpha = solved->alpha;  // the alpha that placed the log
  options.z = args.get_double("z", 1.96);
  options.min_samples = args.get_int("min-samples", 10);
  options.load_slack = args.get_double("load-slack", 0.05);
  const obs::AccessLogAnalysis analysis = obs::analyze_access_log(
      bundle.instance, solved->placement, log, options,
      have_faults ? &faults : nullptr);

  const char* objective = analysis.sequential ? "Gamma" : "Delta";
  std::cout << "access log: " << analysis.total_accesses << " records ("
            << (analysis.sequential ? "sequential" : "parallel")
            << ", relay " << analysis.relay << ", jitter "
            << report::Table::num(analysis.jitter, 3) << ", service rate "
            << report::Table::num(analysis.service_rate, 3) << ")\n";

  report::Table summary({"metric", "value"});
  summary.add_row({std::string("empirical mean ") + objective,
                   report::Table::num(analysis.overall_mean, 4) + " +/- " +
                       report::Table::num(analysis.overall_half_width, 4)});
  summary.add_row({std::string("analytic mean ") + objective,
                   report::Table::num(analysis.overall_analytic, 4)});
  summary.add_row({"mean wall-clock delay",
                   report::Table::num(analysis.wall_mean, 4)});
  summary.add_row({"mean probe queue wait",
                   report::Table::num(analysis.mean_queue_wait, 4)});
  summary.add_row({"max probe queue wait",
                   report::Table::num(analysis.max_queue_wait, 4)});
  summary.print(std::cout);

  report::Table clients(
      {"client", "accesses", "empirical", "+/-", "analytic", "status"});
  for (const obs::ClientCheck& check : analysis.clients) {
    clients.add_row({std::to_string(check.client),
                     std::to_string(check.count),
                     report::Table::num(check.empirical_mean, 4),
                     report::Table::num(check.half_width, 4),
                     report::Table::num(check.analytic, 4),
                     check.checked ? (check.ok ? "ok" : "FAIL") : "skipped"});
  }
  std::cout << "\nper-client empirical vs analytic " << objective
            << "_f(v) (" << analysis.clients_ok << "/"
            << analysis.clients_checked << " checked clients ok):\n";
  clients.print(std::cout);

  report::Table nodes({"node", "probes", "observed load", "analytic load",
                       "bound", "status"});
  for (const obs::NodeCheck& check : analysis.nodes) {
    if (check.probes == 0 && check.analytic_load == 0.0) continue;
    nodes.add_row({std::to_string(check.node), std::to_string(check.probes),
                   report::Table::num(check.observed_load, 4),
                   report::Table::num(check.analytic_load, 4),
                   report::Table::num(check.bound, 4),
                   check.ok ? "ok" : "FAIL"});
  }
  std::cout << "\nper-node observed load vs (alpha+1)-cap bound:\n";
  nodes.print(std::cout);

  report::Table quorums(
      {"quorum", "accesses", "share", "p(Q)", "mean delay"});
  for (const obs::QuorumBreakdown& breakdown : analysis.quorums) {
    quorums.add_row({std::to_string(breakdown.quorum),
                     std::to_string(breakdown.count),
                     report::Table::num(breakdown.share, 4),
                     report::Table::num(breakdown.strategy_probability, 4),
                     report::Table::num(breakdown.mean_delay, 4)});
  }
  std::cout << "\nper-quorum access mix:\n";
  quorums.print(std::cout);

  if (analysis.faulty || analysis.faults_checked) {
    report::Table faults_table({"metric", "value"});
    faults_table.add_row({"ok accesses",
                          std::to_string(analysis.ok_accesses)});
    faults_table.add_row({"failed accesses",
                          std::to_string(analysis.failed_accesses)});
    faults_table.add_row({"unavailable accesses",
                          std::to_string(analysis.unavailable_accesses)});
    faults_table.add_row({"total retries",
                          std::to_string(analysis.total_retries)});
    faults_table.add_row({"availability",
                          report::Table::num(analysis.availability, 4)});
    if (analysis.faults_checked) {
      faults_table.add_row({"schedule cross-check",
                            analysis.faults_ok() ? "ok" : "FAIL"});
    }
    std::cout << "\nfault summary (delay/load CI checks skipped under "
                 "faults):\n";
    faults_table.print(std::cout);
    for (const std::string& finding : analysis.fault_findings) {
      std::cout << "  finding: " << finding << "\n";
    }
  }

  std::cout << (analysis.ok()
                    ? "\nACCESS LOG OK: empirical delays and loads match the "
                      "analytic model\n"
                    : "\nACCESS LOG CHECK FAILED: see FAIL rows above\n");
  return analysis.ok() ? 0 : 1;
}

/// --tolerance of the analyze gates, \p fallback when absent: for the
/// counter-drift gate (--diff) the largest relative drift
/// |cand - base| / max(base, 1) that still passes, default 0 (exact); for
/// --trace the absolute sim-time slack. A negative or non-finite value is a
/// usage error.
double drift_tolerance(const cli::ParsedArgs& args, double fallback = 0.0) {
  const double tolerance = args.get_double("tolerance", fallback);
  if (!std::isfinite(tolerance) || tolerance < 0.0) {
    throw std::invalid_argument(
        "flag --tolerance expects a finite number >= 0, got '" +
        args.get("tolerance", "") + "'");
  }
  return tolerance;
}

/// The verdict of a counter-drift gate: the max drift against the
/// tolerance, then every counter over it by name. Returns the exit code
/// (0 within tolerance, 1 drift).
int drift_verdict(double drift, double tolerance,
                  const std::vector<obs::CounterDiff>& counters) {
  const bool ok = drift <= tolerance;
  std::cout << "\nmax deterministic drift: " << report::Table::num(drift, 6)
            << " (tolerance " << report::Table::num(tolerance, 6) << ") -- "
            << (ok ? "OK" : "REGRESSION") << "\n";
  for (const obs::CounterDiff& entry : counters) {
    if (entry.rel_drift() <= tolerance) continue;
    std::cout << "  counter '" << entry.name << "'"
              << (entry.path.empty() ? "" : " at '" + entry.path + "'")
              << " drifted " << report::Table::num(entry.rel_drift(), 6)
              << " > tolerance " << report::Table::num(tolerance, 6)
              << " (base " << (entry.in_base ? std::to_string(entry.base) : "-")
              << ", candidate "
              << (entry.in_cand ? std::to_string(entry.cand) : "-") << ")\n";
  }
  return ok ? 0 : 1;
}

/// A "base/candidate" table cell.
std::string both(double base, double cand, int digits) {
  return report::Table::num(base, digits) + "/" +
         report::Table::num(cand, digits);
}

/// candidate / base as a table cell; "-" without a base.
std::string ratio(double base, double cand) {
  return base > 0.0 ? report::Table::num(cand / base, 3) : "-";
}

/// `qplace analyze --diff BASE --against CAND [--tolerance T]`: structured
/// run-report diff. Deterministic counters (flat and per profile node) and
/// series are gated on T (default 0), as is a profile path on one side
/// only; histograms are reported, per-node wall times are labelled
/// nondeterministic and never gated. Exit 0 = within tolerance, 1 = drift,
/// 2 = not comparable (schema or instance digest mismatch, malformed
/// counter, unreadable file) or a bad --tolerance.
int cmd_analyze_diff(const cli::ParsedArgs& args, ObsSession& /*session*/) {
  const std::string base_path = args.get("diff", "");
  const std::string cand_path = args.require("against");
  const double tolerance = drift_tolerance(args);
  const obs::ReportDiff diff = obs::diff_run_reports(
      load_json_file(base_path), load_json_file(cand_path));
  if (!diff.error.empty()) {
    std::cerr << "error: " << diff.error << "\n";
    return 2;
  }
  if (diff.obs_off_base || diff.obs_off_cand) {
    std::cerr << "warning: "
              << (diff.obs_off_base && diff.obs_off_cand
                      ? "both reports"
                      : (diff.obs_off_base ? "base report" : "candidate"))
              << " from a -DQPLACE_OBS=OFF build: counter maps are empty, a "
                 "zero-drift verdict is vacuous\n";
  }

  std::cout << "report diff: " << base_path << " (base) vs " << cand_path
            << " (candidate)\n\ndeterministic counters (gated, tolerance "
            << report::Table::num(tolerance, 4) << "):\n";
  report::Table counters({"counter", "base", "candidate", "drift"});
  report::Table nodes({"path", "counter", "base", "candidate", "drift"});
  std::size_t attributions = 0;
  for (const obs::CounterDiff& entry : diff.counters) {
    const std::vector<std::string> cells = {
        entry.name, entry.in_base ? std::to_string(entry.base) : "-",
        entry.in_cand ? std::to_string(entry.cand) : "-",
        report::Table::num(entry.rel_drift(), 4)};
    if (entry.path.empty()) {
      counters.add_row(cells);
      continue;
    }
    ++attributions;
    if (entry.rel_drift() == 0.0) continue;
    std::vector<std::string> row = {entry.path};
    row.insert(row.end(), cells.begin(), cells.end());
    nodes.add_row(row);
  }
  counters.print(std::cout);

  if (!diff.structure.empty()) {
    std::cout << "\nprofile paths on one side only (gated like infinite "
                 "drift):\n";
    report::Table structure({"path", "where"});
    for (const obs::ProfileStructureDiff& entry : diff.structure) {
      structure.add_row(
          {entry.path, entry.in_base ? "only in base" : "only in cand"});
    }
    structure.print(std::cout);
  }
  const int drifted = nodes.num_rows();
  std::cout << "\ndeterministic per-node counters (gated, tolerance "
            << report::Table::num(tolerance, 4) << "): " << drifted << " of "
            << attributions << " attributions drifted\n";
  if (drifted > 0) nodes.print(std::cout);

  if (!diff.series.empty()) {
    std::cout << "\ndeterministic series (gated, exact equality):\n";
    report::Table series({"series", "status"});
    for (const obs::SeriesDiff& entry : diff.series) {
      series.add_row({entry.name,
                      entry.in_base != entry.in_cand
                          ? (entry.in_base ? "only in base" : "only in cand")
                          : (entry.equal ? "equal" : "DIVERGED")});
    }
    series.print(std::cout);
  }

  if (!diff.histograms.empty()) {
    std::cout << "\ndeterministic histograms (reported, not gated):\n";
    report::Table hists({"histogram", "count b/c", "mean b/c", "p99 b/c"});
    for (const obs::HistogramDiff& entry : diff.histograms) {
      hists.add_row({entry.name, both(entry.count_base, entry.count_cand, 0),
                     both(entry.mean_base, entry.mean_cand, 4),
                     both(entry.p99_base, entry.p99_cand, 4)});
    }
    hists.print(std::cout);
  }

  if (!diff.walls.empty()) {
    std::cout << "\nper-node wall time (NONDETERMINISTIC, never gated):\n";
    report::Table walls({"path", "calls b/c", "total ms b/c", "ratio"});
    for (const obs::ProfileWallDiff& entry : diff.walls) {
      walls.add_row({entry.path, both(entry.calls_base, entry.calls_cand, 0),
                     both(entry.total_ms_base, entry.total_ms_cand, 3),
                     ratio(entry.total_ms_base, entry.total_ms_cand)});
    }
    walls.print(std::cout);
  }

  if (!diff.resources.empty()) {
    std::cout << "\nprocess resources (NONDETERMINISTIC, never gated):\n";
    report::Table resources({"resource", "base", "candidate", "ratio"});
    for (const obs::ResourceDiff& entry : diff.resources) {
      resources.add_row({entry.name, report::Table::num(entry.base, 0),
                         report::Table::num(entry.cand, 0),
                         ratio(entry.base, entry.cand)});
    }
    resources.print(std::cout);
  }

  const int code =
      drift_verdict(diff.max_deterministic_drift(), tolerance, diff.counters);
  for (const obs::ProfileStructureDiff& entry : diff.structure) {
    std::cout << "  profile path '" << entry.path
              << "' present in only one report\n";
  }
  for (const obs::SeriesDiff& entry : diff.series) {
    if (entry.in_base != entry.in_cand || !entry.equal) {
      std::cout << "  series '" << entry.name
                << (entry.in_base != entry.in_cand
                        ? "' present in only one report\n"
                        : "' diverged (gated at exact equality)\n");
    }
  }
  return code;
}

/// `qplace analyze --trace TRACE --access-log LOG [--tolerance T]
/// [--max-findings N]`: reconcile the causal sim-time span trees of a
/// recorded Chrome trace with the access log of the same run (the rules
/// live in analyze/trace_check.hpp). Exit 0 = every logged access is
/// explained by its span tree, 1 = a mismatch, 2 = unreadable input.
int cmd_analyze_trace(const cli::ParsedArgs& args, ObsSession& /*session*/) {
  const std::string trace_path = args.get("trace", "");
  const std::string log_path = args.require("access-log");
  obs::TraceCheckOptions options;
  options.tolerance = drift_tolerance(args, options.tolerance);
  options.max_findings = args.get_int("max-findings", options.max_findings);

  obs::json::Value trace;
  try {
    trace = load_json_file(trace_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::ifstream in(log_path);
  if (!in) {
    std::cerr << "error: cannot open access log '" << log_path << "'\n";
    return 2;
  }
  const obs::ParsedAccessLog log = obs::parse_access_log(in);

  obs::TraceCheckResult result;
  try {
    result = obs::check_trace_against_log(trace, log, options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "trace check: " << trace_path << " vs access log " << log_path
            << "\n";
  report::Table table({"metric", "value"});
  table.add_row({"sim.access spans", std::to_string(result.access_spans)});
  table.add_row({"log records", std::to_string(log.records.size())});
  table.add_row({"matched records", std::to_string(result.matched_records)});
  table.add_row({"checked attempt spans",
                 std::to_string(result.checked_attempts)});
  table.add_row({"checked probe spans",
                 std::to_string(result.checked_probes)});
  table.add_row({"violations", std::to_string(result.violations)});
  table.print(std::cout);
  for (const std::string& finding : result.findings) {
    std::cout << "  finding: " << finding << "\n";
  }
  const auto shown = static_cast<std::int64_t>(result.findings.size());
  if (result.violations > shown) {
    std::cout << "  ... and " << (result.violations - shown)
              << " more (raise --max-findings to see them)\n";
  }
  std::cout << (result.ok()
                    ? "TRACE OK: every logged access is explained by its "
                      "span tree\n"
                    : "TRACE CHECK FAILED: spans and access log disagree\n");
  return result.ok() ? 0 : 1;
}

/// `qplace analyze` without a mode flag: quality metrics of the system.
int cmd_analyze_system(const cli::ParsedArgs& args, ObsSession& /*session*/) {
  const quorum::QuorumSystem system = cli::make_system(args);
  const double p = args.get_double("p", 0.1);
  std::cout << system.describe() << "\n";
  report::Table table({"metric", "value"});
  table.add_row({"intersecting", system.is_intersecting() ? "yes" : "no"});
  table.add_row({"minimal", system.is_minimal() ? "yes" : "no"});
  table.add_row({"fault tolerance",
                 std::to_string(quorum::fault_tolerance(system))});
  const quorum::OptimalStrategy best = quorum::optimal_load_strategy(system);
  table.add_row({"optimal load", report::Table::num(best.load, 4)});
  table.add_row({"load lower bound",
                 report::Table::num(quorum::load_lower_bound(system), 4)});
  if (system.universe_size() <= 20) {
    table.add_row({"failure prob (p=" + report::Table::num(p, 2) + ")",
                   report::Table::num(
                       quorum::failure_probability_exact(system, p), 6)});
  } else {
    std::mt19937_64 rng(7);
    table.add_row(
        {"failure prob (MC)",
         report::Table::num(
             quorum::failure_probability_monte_carlo(system, p, 20000, rng),
             6)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_analyze(const cli::ParsedArgs& args, ObsSession& session) {
  // The first mode flag present selects: --trace leads because it also
  // takes --access-log.
  static const Route kModes[] = {{"trace", cmd_analyze_trace},
                                 {"diff", cmd_analyze_diff},
                                 {"access-log", cmd_analyze_access_log}};
  for (const Route& mode : kModes) {
    if (args.has(mode.key)) return mode.run(args, session);
  }
  return cmd_analyze_system(args, session);
}

int cmd_solve(const cli::ParsedArgs& args, ObsSession& session) {
  const Algorithm* algorithm =
      find_algorithm(args.get("algorithm", "qpp"), /*certified_only=*/false);
  if (algorithm == nullptr) return 2;
  const bool dot = args.has("dot");
  const InstanceBundle bundle =
      build_instance(args, session, algorithm->gap_lp, dot);
  const auto solution = place(*algorithm, bundle.instance, args);
  if (!solution) return 1;
  const core::Placement& placement = solution->placement;

  std::cout << "algorithm: " << algorithm->name << " (" << solution->detail
            << ")\n"
            << core::evaluate_placement(bundle.instance, placement).to_string();
  std::cout << "placement:";
  for (std::size_t u = 0; u < placement.size(); ++u) {
    std::cout << " u" << u << "->n" << placement[u];
  }
  std::cout << "\n";
  if (dot) std::cout << report::placement_to_dot(*bundle.graph, placement);
  return 0;
}

/// `qplace check`: run a solver, then machine-verify every bound it claims.
int cmd_check(const cli::ParsedArgs& args, ObsSession& session) {
  const Algorithm* algorithm =
      find_algorithm(args.get("algorithm", "qpp"), /*certified_only=*/true);
  if (algorithm == nullptr) return 2;
  const InstanceBundle bundle =
      build_instance(args, session, algorithm->gap_lp);
  const check::ValidationReport instance_report =
      check::validate_instance(bundle.instance);
  if (!instance_report.ok()) {
    std::cerr << "instance invalid:\n" << instance_report.to_string();
    return 1;
  }
  check::CertificateOptions options;
  options.alpha = args.get_double("alpha", 2.0);
  const auto solution = place(*algorithm, bundle.instance, args);
  if (!solution) return 1;
  const check::Certificate certificate = solution->certify(options);

  std::cout << "certificate for " << algorithm->name << ": "
            << solution->claim << "\n"
            << certificate.to_string()
            << (certificate.ok() ? "CERTIFIED: all bounds hold\n"
                                 : "FAILED: some bound is violated\n");
  return certificate.ok() ? 0 : 1;
}

int cmd_simulate(const cli::ParsedArgs& args, ObsSession& session) {
  const InstanceBundle bundle = build_instance(args, session);
  const core::QppInstance& instance = bundle.instance;

  const auto solved = default_placement(instance);
  if (!solved) return 1;
  sim::SimulationConfig config;
  config.duration = args.get_double("duration", 1000.0);
  config.arrival_rate_per_client = args.get_double("rate", 1.0);
  config.service_rate = args.get_double("service-rate", 0.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("sim-seed", 1));
  config.mode = args.get("mode", "parallel") == "sequential"
                    ? sim::AccessMode::kSequential
                    : sim::AccessMode::kParallel;
  config.warmup = args.get_double("warmup", 0.0);
  config.latency_jitter = args.get_double("jitter", 0.0);
  if (!args.get("relay", "").empty()) {
    // Route every access via the Thm 1.2 relay v0 the solver chose -- the
    // Lemma 3.1 access model the bound is actually proved for (eq. (4)).
    // The relay argument only exists for parallel (max-delay) accesses.
    if (config.mode == sim::AccessMode::kSequential) {
      std::cerr << "error: --relay applies to the parallel access model "
                   "(Thm 1.2); drop it or use --mode parallel\n";
      return 2;
    }
    config.relay_node = solved->relay;
  }

  // Fault injection (docs/SIMULATION.md): a deterministic schedule plus the
  // timeout/retry knobs that drive quorum re-selection.
  sim::FaultSchedule faults;
  const std::string faults_path = args.get("faults", "");
  config.probe_timeout = args.get_double("timeout", 0.0);
  config.max_attempts = args.get_int("retries", 3);
  config.retry_backoff = args.get_double("backoff", 0.5);
  config.retry_backoff_cap = args.get_double("backoff-cap", 8.0);
  config.availability_bucket = args.get_double("availability-bucket", 0.0);
  if (!faults_path.empty()) {
    faults = load_faults_file(faults_path);
    if (config.probe_timeout <= 0.0) {
      std::cerr << "error: --faults requires a positive --timeout so "
                   "dropped probes can be detected and retried\n";
      return 2;
    }
    config.faults = &faults;
  }

  // Header context of the streamed artifacts; each adds its own keys.
  const std::map<std::string, std::string> context{
      {"instance_digest", bundle.digest}, {"git_sha", QPLACE_GIT_SHA},
      {"seed", std::to_string(config.seed)},
      {"duration", report::Table::num(config.duration, 6)}};

  // Optional per-access event log (schema qplace.access_log.v2).
  const std::string log_path = args.get("access-log", "");
  std::ofstream log_stream;
  std::optional<obs::AccessLogWriter> log_writer;
  if (!log_path.empty()) {
    log_stream.open(log_path);
    if (!log_stream) {
      std::cerr << "error: cannot open access log '" << log_path
                << "' for writing\n";
      return 2;
    }
    obs::AccessLogConfig log_config;
    log_config.sample_rate = args.get_double("access-log-sample", 1.0);
    log_config.head_limit = args.get_int("access-log-head", 0);
    log_config.sample_seed =
        static_cast<std::uint64_t>(args.get_int("access-log-seed", 0));
    // Everything `qplace analyze --access-log` needs to rebuild the
    // instance/model and to refuse a mismatched one.
    std::map<std::string, std::string> log_context = context;
    log_context.insert(
        {{"mode", config.mode == sim::AccessMode::kSequential ? "sequential"
                                                               : "parallel"},
         {"relay", std::to_string(config.relay_node)},
         {"warmup", report::Table::num(config.warmup, 6)},
         {"jitter", report::Table::num(config.latency_jitter, 6)},
         {"service_rate", report::Table::num(config.service_rate, 6)},
         {"rate", report::Table::num(config.arrival_rate_per_client, 6)},
         {"sample_rate", report::Table::num(log_config.sample_rate, 6)},
         {"head_limit", std::to_string(log_config.head_limit)},
         {"sample_seed", std::to_string(log_config.sample_seed)}});
    if (config.faults != nullptr) {
      log_context.insert(
          {{"fault_digest", sim::fault_schedule_digest(*config.faults)},
           {"timeout", report::Table::num(config.probe_timeout, 6)},
           {"retries", std::to_string(config.max_attempts)},
           {"backoff", report::Table::num(config.retry_backoff, 6)}});
    }
    log_writer.emplace(log_stream, log_config, log_context);
    config.access_log = &*log_writer;
  }

  // Analytic mean delay for this access model -- printed in the summary
  // table and used as the --progress comparison baseline.
  double analytic = 0.0;
  if (config.relay_node >= 0) {
    analytic = core::relay_delay(instance, solved->placement,
                                 config.relay_node);
  } else if (config.mode == sim::AccessMode::kParallel) {
    analytic = core::average_max_delay(instance, solved->placement);
  } else {
    analytic = core::average_total_delay(instance, solved->placement);
  }

  // Live telemetry (docs/OBSERVABILITY.md, "Live telemetry"): registry
  // snapshots on a deterministic sim-time grid, each streamed to
  // --series-out as one JSONL line the moment it is sampled.
  const std::string series_path = args.get("series-out", "");
  const double telemetry_interval =
      args.get_double("telemetry-interval", config.duration / 100.0);
  // The grid must be finite and positive, and coarse enough that a tiny
  // interval cannot turn the run into an unbounded sampling loop.
  if ((!series_path.empty() || args.has("telemetry-interval")) &&
      !(std::isfinite(telemetry_interval) && telemetry_interval > 0.0 &&
        config.duration / telemetry_interval <= kMaxTelemetrySamples)) {
    std::cerr << "error: --telemetry-interval must be a finite number > 0 "
                 "with duration / interval <= "
              << kMaxTelemetrySamples << ", got " << telemetry_interval
              << " (duration " << config.duration << ")\n";
    return 2;
  }
  std::ofstream series_stream;
  std::optional<obs::MetricsSnapshotter> snapshotter;
  if (!series_path.empty()) {
    // Opened before the run, like the access log: an unwritable path fails
    // fast instead of after the whole simulation.
    series_stream.open(series_path);
    if (!series_stream) {
      std::cerr << "error: cannot open series '" << series_path
                << "' for writing\n";
      return 2;
    }
    std::map<std::string, std::string> series_context = context;
    series_context.emplace("interval",
                           report::Table::num(telemetry_interval, 6));
    snapshotter.emplace(series_stream, series_context);
    config.telemetry = &*snapshotter;
    config.telemetry_interval = telemetry_interval;
  }

  std::optional<obs::ProgressMeter> meter;
  if (!args.get("progress", "").empty()) {
    meter.emplace(std::cerr, analytic);
    // Finer-grained than the telemetry grid: redraws are wall-throttled by
    // the meter itself, so a dense sim-time grid costs nothing visible.
    config.progress_interval = config.duration / 1000.0;
    config.on_progress = [&meter](const obs::ProgressStats& stats) {
      meter->update(stats);
    };
  }

  const sim::SimulationResult result =
      sim::simulate(instance, solved->placement, config);
  if (meter.has_value()) {
    meter->finish();
  }
  if (snapshotter.has_value()) {
    series_stream.close();
    if (!series_stream) {
      std::cerr << "error: failed writing series '" << series_path << "'\n";
      return 2;
    }
    std::cerr << "telemetry: " << snapshotter->samples() << " snapshots -> "
              << series_path << "\n";
  }
  if (log_writer.has_value()) {
    log_writer->close();  // surface I/O errors here, not in the destructor
    if (!log_stream) {
      std::cerr << "error: failed writing access log '" << log_path << "'\n";
      return 2;
    }
  }
  session.report().add_histogram("sim.access_delay", result.access_delay);
  if (result.queue_wait.count() > 0) {
    session.report().add_histogram("sim.queue_wait", result.queue_wait);
  }

  report::Table table({"metric", "value"});
  table.add_row({"completed accesses",
                 std::to_string(result.completed_accesses)});
  if (config.relay_node >= 0) {
    table.add_row({"relay node (Thm 1.2 v0)",
                   std::to_string(config.relay_node)});
  }
  table.add_row({"simulated mean delay",
                 report::Table::num(result.overall_mean_delay, 4)});
  // Quantiles/max are NaN-guarded: an empty measurement window (everything
  // inside warmup, or duration too short) has no distribution to report.
  if (result.access_delay.count() > 0) {
    table.add_row({"simulated p50 delay",
                   report::Table::num(result.access_delay.quantile(0.50), 4)});
    table.add_row({"simulated p90 delay",
                   report::Table::num(result.access_delay.quantile(0.90), 4)});
    table.add_row({"simulated p99 delay",
                   report::Table::num(result.access_delay.quantile(0.99), 4)});
    table.add_row({"simulated max delay",
                   report::Table::num(result.access_delay.max(), 4)});
  }
  table.add_row({"analytic mean delay", report::Table::num(analytic, 4)});
  if (config.faults != nullptr) {
    table.add_row({"failed accesses",
                   std::to_string(result.failed_accesses)});
    table.add_row({"unavailable accesses",
                   std::to_string(result.unavailable_accesses)});
    table.add_row({"timed-out attempts",
                   std::to_string(result.timed_out_attempts)});
    table.add_row({"retries", std::to_string(result.retries)});
    table.add_row({"availability",
                   report::Table::num(result.availability, 4)});
    table.add_row({"intersection safety",
                   result.safety_ok ? "ok" : "VIOLATED"});
  }
  table.print(std::cout);
  if (log_writer.has_value()) {
    std::cout << "access log: " << log_writer->recorded() << " records -> "
              << log_path << "\n";
  }
  return 0;
}

const Route kCommands[] = {{"topology", cmd_topology},
                           {"analyze", cmd_analyze},
                           {"solve", cmd_solve},
                           {"simulate", cmd_simulate},
                           {"check", cmd_check}};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  if (raw.empty() || raw.front() == "--help" || raw.front() == "help") {
    return usage();
  }
  try {
    const cli::ParsedArgs args = cli::parse_args(raw);
    const int threads = cli::configure_threads(args);
    ObsSession session(args, threads);
    for (const Route& command : kCommands) {
      if (args.command() != command.key) continue;
      const int code = command.run(args, session);
      session.finish();
      for (const std::string& flag : args.unread_flags()) {
        std::cerr << "warning: unused flag --" << flag << "\n";
      }
      return code;
    }
    std::cerr << "unknown command '" << args.command() << "'\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
