/// Metamorphic determinism suite for the exec engine (docs/PARALLEL.md):
/// every solver mode must produce bit-identical metrics, placements, delays,
/// and certificate verdicts whether the pool has 1 thread or 8. EXPECT_EQ on
/// doubles is deliberate -- the contract is exact equality, not tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/certificate.hpp"
#include "core/evaluators.hpp"
#include "core/local_search.hpp"
#include "core/majority_layout.hpp"
#include "core/multi_strategy.hpp"
#include "core/qpp_solver.hpp"
#include "core/specialized.hpp"
#include "core/ssqpp_solver.hpp"
#include "core/total_delay.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"
#include "sim/simulator.hpp"

namespace qp {
namespace {

/// Runs \p body under a pool of exactly \p threads, restoring the default
/// pool size afterwards.
template <typename Body>
auto with_threads(int threads, Body&& body) {
  exec::set_num_threads(threads);
  auto result = body();
  exec::set_num_threads(0);
  return result;
}

struct NamedInstance {
  std::string name;
  core::QppInstance instance;
};

/// Fixed-seed instance families: deterministic mesh, ER with majority, ER
/// with grid. Capacities leave a bit of slack so every solver is feasible.
std::vector<NamedInstance> make_instances() {
  std::vector<NamedInstance> out;
  {
    const quorum::QuorumSystem system = quorum::grid(2);
    const quorum::AccessStrategy strategy =
        quorum::AccessStrategy::uniform(system);
    const graph::Metric metric =
        graph::Metric::from_graph(graph::grid_mesh(4));
    out.push_back(
        {"grid2/mesh4",
         core::QppInstance(metric, std::vector<double>(16, 1.0), system,
                           strategy)});
  }
  {
    std::mt19937_64 rng(9);
    const quorum::QuorumSystem system = quorum::majority(5);
    const quorum::AccessStrategy strategy =
        quorum::AccessStrategy::uniform(system);
    const graph::Metric metric = graph::Metric::from_graph(
        graph::erdos_renyi(14, 0.4, rng, 1.0, 6.0));
    out.push_back(
        {"majority5/er14",
         core::QppInstance(metric, std::vector<double>(14, 1.0), system,
                           strategy)});
  }
  {
    std::mt19937_64 rng(23);
    const quorum::QuorumSystem system = quorum::grid(2);
    const quorum::AccessStrategy strategy =
        quorum::AccessStrategy::uniform(system);
    const graph::Metric metric = graph::Metric::from_graph(
        graph::erdos_renyi(12, 0.5, rng, 1.0, 8.0));
    out.push_back(
        {"grid2/er12",
         core::QppInstance(metric, std::vector<double>(12, 1.0), system,
                           strategy)});
  }
  return out;
}

/// The Thm 1.3 layout sweep matching the instance's system: grid(2) has 4
/// quorums, majority(5) has C(5, 3) = 10.
std::optional<core::SpecializedQppResult> solve_layout(
    const core::QppInstance& instance) {
  return instance.system().num_quorums() == 4
             ? core::solve_qpp_grid(instance, 2)
             : core::solve_qpp_majority(instance, 3);
}

/// Seeded per-client strategies and weights for the Sec 6 solver, drawn
/// sequentially outside any timed or pooled code.
struct MultiInputs {
  core::PerClientStrategies strategies;
  std::vector<double> weights;
};

MultiInputs multi_inputs(const core::QppInstance& instance) {
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> draw(0.05, 1.0);
  MultiInputs inputs;
  for (int v = 0; v < instance.num_nodes(); ++v) {
    std::vector<double> p(
        static_cast<std::size_t>(instance.system().num_quorums()));
    for (double& x : p) x = draw(rng);
    double total = 0.0;
    for (double x : p) total += x;
    for (double& x : p) x /= total;
    inputs.strategies.emplace_back(instance.system(), std::move(p));
    inputs.weights.push_back(draw(rng));
  }
  return inputs;
}

std::optional<core::MultiStrategyQppResult> solve_multi(
    const core::QppInstance& instance, const MultiInputs& inputs) {
  return core::solve_qpp_multi(instance.metric(), instance.capacities(),
                               instance.system(), inputs.strategies,
                               inputs.weights);
}

TEST(ParallelDeterminism, MetricBuildBitIdentical) {
  // The all-pairs Dijkstra sweep is the innermost parallel loop; the whole
  // distance matrix must match bit for bit.
  const auto build = [] {
    std::mt19937_64 rng(5);
    const graph::Graph g = graph::erdos_renyi(48, 0.25, rng, 1.0, 9.0);
    const graph::Metric metric = graph::Metric::from_graph(g);
    std::vector<double> flat;
    for (int i = 0; i < metric.num_points(); ++i) {
      for (int j = 0; j < metric.num_points(); ++j) {
        flat.push_back(metric(i, j));
      }
    }
    return flat;
  };
  const std::vector<double> at_one = with_threads(1, build);
  const std::vector<double> at_eight = with_threads(8, build);
  ASSERT_EQ(at_one.size(), at_eight.size());
  for (std::size_t i = 0; i < at_one.size(); ++i) {
    ASSERT_EQ(at_one[i], at_eight[i]) << "distance entry " << i;
  }
}

TEST(ParallelDeterminism, QppModeBitIdentical) {
  for (const NamedInstance& named : make_instances()) {
    const auto solve = [&named] {
      core::QppSolveOptions options;
      options.alpha = 2.0;
      return core::solve_qpp(named.instance, options);
    };
    const auto at_one = with_threads(1, solve);
    const auto at_eight = with_threads(8, solve);
    ASSERT_EQ(at_one.has_value(), at_eight.has_value()) << named.name;
    if (!at_one) continue;
    EXPECT_EQ(at_one->placement, at_eight->placement) << named.name;
    EXPECT_EQ(at_one->chosen_source, at_eight->chosen_source) << named.name;
    EXPECT_EQ(at_one->average_delay, at_eight->average_delay) << named.name;
    EXPECT_EQ(at_one->best_lp_bound, at_eight->best_lp_bound) << named.name;
    EXPECT_EQ(at_one->load_violation, at_eight->load_violation) << named.name;
    ASSERT_EQ(at_one->relay_lps.size(), at_eight->relay_lps.size())
        << named.name;
    for (std::size_t i = 0; i < at_one->relay_lps.size(); ++i) {
      const core::RelayLp& one = at_one->relay_lps[i];
      const core::RelayLp& eight = at_eight->relay_lps[i];
      EXPECT_EQ(one.source, eight.source) << named.name;
      EXPECT_EQ(one.objective, eight.objective) << named.name;
      EXPECT_EQ(one.duals, eight.duals) << named.name << " relay " << i;
    }

    // Certificate verdicts (and every printed bound) must agree too.
    const auto certify = [&](const core::QppResult& result) {
      check::CertificateOptions options;
      options.alpha = 2.0;
      options.derive_opt_lower_bound = true;
      return check::check_certificate(named.instance, result, options);
    };
    const check::Certificate cert_one =
        with_threads(1, [&] { return certify(*at_one); });
    const check::Certificate cert_eight =
        with_threads(8, [&] { return certify(*at_eight); });
    EXPECT_EQ(cert_one.ok(), cert_eight.ok()) << named.name;
    EXPECT_EQ(cert_one.to_string(), cert_eight.to_string()) << named.name;
    EXPECT_TRUE(cert_one.ok()) << named.name << "\n" << cert_one.to_string();
  }
}

TEST(ParallelDeterminism, SsqppModeBitIdentical) {
  for (const NamedInstance& named : make_instances()) {
    const core::SsqppInstance view = core::single_source_view(named.instance, 0);
    const auto solve = [&view] { return core::solve_ssqpp(view, 2.0); };
    const auto at_one = with_threads(1, solve);
    const auto at_eight = with_threads(8, solve);
    ASSERT_EQ(at_one.has_value(), at_eight.has_value()) << named.name;
    if (!at_one) continue;
    EXPECT_EQ(at_one->placement, at_eight->placement) << named.name;
    EXPECT_EQ(at_one->lp_objective, at_eight->lp_objective) << named.name;
    EXPECT_EQ(at_one->delay, at_eight->delay) << named.name;
    EXPECT_EQ(at_one->load_violation, at_eight->load_violation) << named.name;

    const auto certify = [&](const core::SsqppResult& result) {
      check::CertificateOptions options;
      options.alpha = 2.0;
      return check::check_certificate(view, result, options);
    };
    const check::Certificate cert_one =
        with_threads(1, [&] { return certify(*at_one); });
    const check::Certificate cert_eight =
        with_threads(8, [&] { return certify(*at_eight); });
    EXPECT_EQ(cert_one.ok(), cert_eight.ok()) << named.name;
    EXPECT_EQ(cert_one.to_string(), cert_eight.to_string()) << named.name;
  }
}

TEST(ParallelDeterminism, TotalModeBitIdentical) {
  for (const NamedInstance& named : make_instances()) {
    const auto solve = [&named] {
      return core::solve_total_delay(named.instance);
    };
    const auto at_one = with_threads(1, solve);
    const auto at_eight = with_threads(8, solve);
    ASSERT_EQ(at_one.has_value(), at_eight.has_value()) << named.name;
    if (!at_one) continue;
    EXPECT_EQ(at_one->placement, at_eight->placement) << named.name;
    EXPECT_EQ(at_one->average_delay, at_eight->average_delay) << named.name;
    EXPECT_EQ(at_one->lp_objective, at_eight->lp_objective) << named.name;

    const auto certify = [&](const core::TotalDelayResult& result) {
      check::CertificateOptions options;
      return check::check_certificate(named.instance, result, options);
    };
    const check::Certificate cert_one =
        with_threads(1, [&] { return certify(*at_one); });
    const check::Certificate cert_eight =
        with_threads(8, [&] { return certify(*at_eight); });
    EXPECT_EQ(cert_one.ok(), cert_eight.ok()) << named.name;
    EXPECT_EQ(cert_one.to_string(), cert_eight.to_string()) << named.name;
  }
}

TEST(ParallelDeterminism, MajorityModeBitIdentical) {
  std::mt19937_64 rng(31);
  const quorum::QuorumSystem system = quorum::majority(5);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const graph::Metric metric = graph::Metric::from_graph(
      graph::erdos_renyi(16, 0.35, rng, 1.0, 7.0));
  const core::SsqppInstance view(metric, std::vector<double>(16, 1.0), system,
                                 strategy, 2);
  const auto solve = [&view] { return core::majority_layout(view, 3); };
  const auto at_one = with_threads(1, solve);
  const auto at_eight = with_threads(8, solve);
  ASSERT_EQ(at_one.has_value(), at_eight.has_value());
  ASSERT_TRUE(at_one.has_value());
  EXPECT_EQ(at_one->placement, at_eight->placement);
  EXPECT_EQ(at_one->delay, at_eight->delay);
  EXPECT_EQ(at_one->formula_delay, at_eight->formula_delay);

  const auto certify = [&](const core::MajorityLayoutResult& result) {
    return check::check_certificate(view, result, 3, {});
  };
  const check::Certificate cert_one =
      with_threads(1, [&] { return certify(*at_one); });
  const check::Certificate cert_eight =
      with_threads(8, [&] { return certify(*at_eight); });
  EXPECT_EQ(cert_one.ok(), cert_eight.ok());
  EXPECT_EQ(cert_one.to_string(), cert_eight.to_string());
}

TEST(ParallelDeterminism, LayoutSweepBitIdentical) {
  // Thm 1.3: the relay sweep over the Sec 4 layouts runs on the pool.
  for (const NamedInstance& named : make_instances()) {
    const auto solve = [&named] { return solve_layout(named.instance); };
    const auto at_one = with_threads(1, solve);
    const auto at_eight = with_threads(8, solve);
    ASSERT_EQ(at_one.has_value(), at_eight.has_value()) << named.name;
    ASSERT_TRUE(at_one.has_value()) << named.name;
    EXPECT_EQ(at_one->placement, at_eight->placement) << named.name;
    EXPECT_EQ(at_one->chosen_source, at_eight->chosen_source) << named.name;
    EXPECT_EQ(at_one->average_delay, at_eight->average_delay) << named.name;
    EXPECT_EQ(at_one->source_delay, at_eight->source_delay) << named.name;
  }
}

TEST(ParallelDeterminism, LayoutSweepThrowsFromThePool) {
  // A system that is no grid fails inside every pool task; the caller sees
  // the std::invalid_argument of the lowest-indexed chunk.
  const quorum::QuorumSystem wrong = quorum::star(4);
  const core::QppInstance instance(
      graph::Metric::from_graph(graph::path_graph(6)),
      std::vector<double>(6, 1.0), wrong,
      quorum::AccessStrategy::uniform(wrong));
  exec::set_num_threads(8);
  EXPECT_THROW(core::solve_qpp_grid(instance, 2), std::invalid_argument);
  exec::set_num_threads(0);
}

TEST(ParallelDeterminism, MultiStrategyModeBitIdentical) {
  // Sec 6: the relay sweep under p-bar, scored by the per-client objective.
  for (const NamedInstance& named : make_instances()) {
    const MultiInputs inputs = multi_inputs(named.instance);
    const auto solve = [&] { return solve_multi(named.instance, inputs); };
    const auto at_one = with_threads(1, solve);
    const auto at_eight = with_threads(8, solve);
    ASSERT_EQ(at_one.has_value(), at_eight.has_value()) << named.name;
    ASSERT_TRUE(at_one.has_value()) << named.name;
    EXPECT_EQ(at_one->placement, at_eight->placement) << named.name;
    EXPECT_EQ(at_one->chosen_source, at_eight->chosen_source) << named.name;
    EXPECT_EQ(at_one->average_delay, at_eight->average_delay) << named.name;
    EXPECT_EQ(at_one->load_violation, at_eight->load_violation) << named.name;
  }
}

TEST(ParallelDeterminism, LocalSearchTrajectoryBitIdentical) {
  // First-improvement descent applies one canonical move per round; the
  // whole trajectory (not just the final objective) must be thread-count
  // independent.
  for (const NamedInstance& named : make_instances()) {
    const auto descend = [&named] {
      // Element u starts on node u: distinct nodes, loads <= 1 = cap.
      core::Placement start(
          static_cast<std::size_t>(named.instance.system().universe_size()));
      for (std::size_t u = 0; u < start.size(); ++u) {
        start[u] = static_cast<int>(u);
      }
      core::LocalSearchOptions options;
      options.max_moves = 40;
      return core::local_search_max_delay(named.instance, std::move(start),
                                          options);
    };
    const auto at_one = with_threads(1, descend);
    const auto at_eight = with_threads(8, descend);
    EXPECT_EQ(at_one.placement, at_eight.placement) << named.name;
    EXPECT_EQ(at_one.delay, at_eight.delay) << named.name;
    EXPECT_EQ(at_one.moves, at_eight.moves) << named.name;
  }
}

TEST(ParallelDeterminism, ObsCountersAndSeriesBitIdentical) {
  // The observability extension of the contract (docs/OBSERVABILITY.md):
  // every counter total and every series trajectory in the registry must be
  // bit-identical whether the pool has 1 thread or 8. Timers carry wall
  // time and are deliberately excluded.
  const std::vector<NamedInstance> instances = make_instances();
  const auto run = [&](int threads) {
    obs::Registry::instance().reset_all();
    with_threads(threads, [&] {
      for (const NamedInstance& named : instances) {
        core::QppSolveOptions options;
        options.alpha = 2.0;
        core::solve_qpp(named.instance, options);
        solve_layout(named.instance);
        solve_multi(named.instance, multi_inputs(named.instance));
        // The QPP placement may violate capacities (the guarantee is
        // bicriteria), so descend from a seeded feasible start instead.
        std::mt19937_64 rng(7);
        const auto start =
            core::random_feasible_placement(named.instance, rng);
        if (!start) continue;
        core::LocalSearchOptions search;
        search.max_moves = 20;
        core::local_search_max_delay(named.instance, *start, search);
      }
      return 0;
    });
    return std::make_pair(obs::Registry::instance().counter_values(),
                          obs::Registry::instance().series_values());
  };
  const auto at_one = run(1);
  const auto at_eight = run(8);
  EXPECT_EQ(at_one.first, at_eight.first);
  EXPECT_EQ(at_one.second, at_eight.second);
  if (obs::compiled_in()) {
    // The run must actually have produced instrumentation to compare.
    EXPECT_GT(at_one.first.at("lp.solves"), 0u);
    EXPECT_FALSE(at_one.second.empty());
  }
}

TEST(ParallelDeterminism, SimulatorHistogramsBitIdentical) {
  // The simulator is sequential, but its inputs (the solved placement) come
  // from the parallel solver; histogram bucket vectors must match exactly
  // end to end.
  const NamedInstance named = make_instances().front();
  const auto run = [&](int threads) {
    return with_threads(threads, [&] {
      core::QppSolveOptions options;
      options.alpha = 2.0;
      const auto solved = core::solve_qpp(named.instance, options);
      sim::SimulationConfig config;
      config.duration = 100.0;
      config.warmup = 10.0;
      config.service_rate = 50.0;
      return sim::simulate(named.instance, solved->placement, config);
    });
  };
  const sim::SimulationResult at_one = run(1);
  const sim::SimulationResult at_eight = run(8);
  EXPECT_EQ(at_one.access_delay.buckets(), at_eight.access_delay.buckets());
  EXPECT_EQ(at_one.access_delay.count(), at_eight.access_delay.count());
  EXPECT_EQ(at_one.access_delay.sum(), at_eight.access_delay.sum());
  EXPECT_EQ(at_one.queue_wait.buckets(), at_eight.queue_wait.buckets());
  EXPECT_EQ(at_one.per_node_mean_queue_depth,
            at_eight.per_node_mean_queue_depth);
  EXPECT_EQ(at_one.per_node_max_queue_depth,
            at_eight.per_node_max_queue_depth);
  EXPECT_GT(at_one.access_delay.count(), 0u);
}

TEST(ParallelDeterminism, AccessLogBytesIdenticalAcrossThreadCounts) {
  // The access log (docs/OBSERVABILITY.md, qplace.access_log.v2) is a
  // deterministic artifact: solving on 1 or 8 threads and simulating with
  // the same seed must produce byte-identical JSONL, record for record.
  const NamedInstance named = make_instances().front();
  const auto run = [&](int threads, obs::AccessLogConfig log_config) {
    return with_threads(threads, [&] {
      core::QppSolveOptions options;
      options.alpha = 2.0;
      const auto solved = core::solve_qpp(named.instance, options);
      std::ostringstream out;
      obs::AccessLogWriter writer(out, log_config);
      sim::SimulationConfig config;
      config.duration = 120.0;
      config.warmup = 10.0;
      config.service_rate = 50.0;
      config.access_log = &writer;
      sim::simulate(named.instance, solved->placement, config);
      writer.close();
      return out.str();
    });
  };
  const std::string at_one = run(1, {});
  const std::string at_eight = run(8, {});
  EXPECT_EQ(at_one, at_eight);
  EXPECT_GT(at_one.size(), 0u);

  // And the sampled log is the same deterministic subset at every thread
  // count -- an exact byte match again, not just record-count equality.
  obs::AccessLogConfig sampling;
  sampling.sample_rate = 0.5;
  sampling.sample_seed = 5;
  const std::string sampled_one = run(1, sampling);
  const std::string sampled_eight = run(8, sampling);
  EXPECT_EQ(sampled_one, sampled_eight);
  EXPECT_LT(sampled_one.size(), at_one.size());
}

TEST(ParallelDeterminism, FaultRunArtifactsBitIdenticalAcrossThreadCounts) {
  // The determinism contract extends to fault injection unchanged
  // (docs/SIMULATION.md): a fixed schedule + fixed seed must produce
  // byte-identical v2 access logs (attempts/outcome fields included),
  // identical fault counters, and identical registry state at any thread
  // count. Retry decisions draw no randomness, so this holds exactly.
  const NamedInstance named = make_instances().front();
  // Crash a node the placement actually uses (solved once, deterministic)
  // -- and among those, the one hosting the fewest elements, so some
  // quorum stays live and the run exercises timeout, re-selection AND
  // successful retries rather than going fully unavailable.
  const core::Placement reference_placement = [&] {
    core::QppSolveOptions options;
    options.alpha = 2.0;
    return core::solve_qpp(named.instance, options)->placement;
  }();
  std::map<int, int> elements_on_node;
  for (int node : reference_placement) ++elements_on_node[node];
  const int crash_node =
      std::min_element(elements_on_node.begin(), elements_on_node.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  const sim::FaultSchedule schedule({{crash_node, 0.0, 120.0}}, {}, {});

  struct FaultRun {
    std::string log;
    sim::SimulationResult result;
    std::map<std::string, std::uint64_t> counters;
  };
  const auto run = [&](int threads, obs::AccessLogConfig log_config) {
    obs::Registry::instance().reset_all();
    return with_threads(threads, [&] {
      core::QppSolveOptions options;
      options.alpha = 2.0;
      const auto solved = core::solve_qpp(named.instance, options);
      std::ostringstream out;
      obs::AccessLogWriter writer(out, log_config);
      sim::SimulationConfig config;
      config.duration = 120.0;
      config.warmup = 10.0;
      config.seed = 99;
      config.faults = &schedule;
      config.probe_timeout = 10.0;
      config.max_attempts = 3;
      config.availability_bucket = 25.0;
      config.access_log = &writer;
      sim::SimulationResult result =
          sim::simulate(named.instance, solved->placement, config);
      writer.close();
      return FaultRun{out.str(), std::move(result),
                      obs::Registry::instance().counter_values()};
    });
  };

  const FaultRun at_one = run(1, {});
  const FaultRun at_eight = run(8, {});
  EXPECT_EQ(at_one.log, at_eight.log);
  EXPECT_GT(at_one.log.size(), 0u);
  EXPECT_EQ(at_one.result.failed_accesses, at_eight.result.failed_accesses);
  EXPECT_EQ(at_one.result.timed_out_attempts,
            at_eight.result.timed_out_attempts);
  EXPECT_EQ(at_one.result.retries, at_eight.result.retries);
  EXPECT_EQ(at_one.result.availability_series,
            at_eight.result.availability_series);
  EXPECT_EQ(at_one.counters, at_eight.counters);
  // The run must actually have exercised the fault path, and recovered:
  // timeouts fired, retries launched, and accesses still completed.
  EXPECT_GT(at_one.result.retries, 0);
  EXPECT_GT(at_one.result.timed_out_attempts, 0);
  EXPECT_GT(at_one.result.completed_accesses, 0);

  // Sampling invariance: the sampled fault log is the identical subset at
  // every thread count, and every sampled line appears verbatim in the
  // full log (per-record hash sampling, not positional).
  obs::AccessLogConfig sampling;
  sampling.sample_rate = 0.5;
  sampling.sample_seed = 5;
  const FaultRun sampled_one = run(1, sampling);
  const FaultRun sampled_eight = run(8, sampling);
  EXPECT_EQ(sampled_one.log, sampled_eight.log);
  EXPECT_LT(sampled_one.log.size(), at_one.log.size());
  std::istringstream lines(sampled_one.log);
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (first) {  // header carries the sampling config; not a record
      first = false;
      continue;
    }
    EXPECT_NE(at_one.log.find(line), std::string::npos)
        << "sampled record missing from full log: " << line;
  }
}

TEST(ParallelDeterminism, EvaluatorsBitIdenticalAcrossThreadCounts) {
  // Direct check on the chunked reductions, including an instance large
  // enough (> exec::kReductionGrain clients) to use several chunks.
  std::mt19937_64 rng(41);
  const quorum::QuorumSystem system = quorum::grid(3);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const graph::Metric metric = graph::Metric::from_graph(
      graph::erdos_renyi(96, 0.12, rng, 1.0, 10.0));
  const core::QppInstance instance(metric, std::vector<double>(96, 10.0),
                                   system, strategy);
  core::Placement f(9);
  for (int u = 0; u < 9; ++u) f[static_cast<std::size_t>(u)] = (u * 11) % 96;

  const auto evaluate = [&] {
    return std::vector<double>{
        core::average_max_delay(instance, f),
        core::average_total_delay(instance, f),
        core::average_closest_quorum_delay(instance, f),
        static_cast<double>(core::best_relay_node(instance, f))};
  };
  const std::vector<double> at_one = with_threads(1, evaluate);
  const std::vector<double> at_eight = with_threads(8, evaluate);
  const std::vector<double> at_five = with_threads(5, evaluate);
  EXPECT_EQ(at_one, at_eight);
  EXPECT_EQ(at_one, at_five);
}

}  // namespace
}  // namespace qp
