#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "core/evaluators.hpp"
#include "graph/generators.hpp"
#include "obs/access_log.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"
#include "sim/fault_schedule.hpp"

namespace qp::sim {
namespace {

// Seeding discipline (prerequisite for the parallel determinism suite,
// tests/test_parallel_determinism.cpp): every case owns its seeds
// explicitly -- the topology seed through make_er_instance, the simulation
// seed through make_config -- and no engine is shared between cases. A
// failure therefore reproduces in isolation under
// --gtest_filter=Simulator.<Case> regardless of execution order.

core::QppInstance make_instance(const graph::Graph& g,
                                const quorum::QuorumSystem& system) {
  return core::QppInstance(
      graph::Metric::from_graph(g),
      std::vector<double>(static_cast<std::size_t>(g.num_nodes()), 1e9),
      system, quorum::AccessStrategy::uniform(system));
}

/// Erdos-Renyi instance with a per-case topology seed.
core::QppInstance make_er_instance(int nodes, double p, double max_length,
                                   std::uint64_t topology_seed,
                                   const quorum::QuorumSystem& system) {
  std::mt19937_64 rng(topology_seed);
  return make_instance(graph::erdos_renyi(nodes, p, rng, 1.0, max_length),
                       system);
}

/// Shared config factory: pins the per-case simulation seed, checks the
/// warmup < duration precondition at the test site (not just deep in the
/// engine), and pins the fault knobs to the failure-free baseline so a
/// future default change cannot silently turn these convergence tests into
/// fault runs. Fault behaviour itself is covered by tests/test_faults.cpp.
SimulationConfig make_config(std::uint64_t seed, double duration,
                             double warmup = 0.0) {
  EXPECT_LT(warmup, duration) << "test misconfiguration: warmup >= duration";
  SimulationConfig config;
  config.seed = seed;
  config.duration = duration;
  config.warmup = warmup;
  config.faults = nullptr;
  config.probe_timeout = 0.0;
  config.availability_bucket = 0.0;
  return config;
}

TEST(Simulator, ValidatesArguments) {
  // Deliberately invalid configs, so this case builds them by hand instead
  // of through make_config (whose job is to rule these out).
  const core::QppInstance instance =
      make_instance(graph::path_graph(4), quorum::grid(2));
  const core::Placement f = {0, 1, 2, 3};
  SimulationConfig config;
  config.duration = 0.0;
  EXPECT_THROW(simulate(instance, f, config), std::invalid_argument);
  config.duration = 10.0;
  config.warmup = 20.0;
  EXPECT_THROW(simulate(instance, f, config), std::invalid_argument);
  config.warmup = 0.0;
  EXPECT_THROW(simulate(instance, {0, 1}, config), std::invalid_argument);
}

TEST(Simulator, ParallelDelayMatchesAnalyticExpectation) {
  // No queueing: measured mean delay of client v must converge to the
  // paper's Delta_f(v).
  const core::QppInstance instance =
      make_er_instance(8, 0.5, 5.0, /*topology_seed=*/3, quorum::grid(2));
  const core::Placement f = {1, 3, 5, 7};

  SimulationConfig config = make_config(/*seed=*/11, /*duration=*/4000.0);
  config.arrival_rate_per_client = 1.0;
  config.mode = AccessMode::kParallel;
  const SimulationResult result = simulate(instance, f, config);

  ASSERT_GT(result.completed_accesses, 10000);
  for (int v = 0; v < 8; ++v) {
    const double analytic = core::expected_max_delay(
        instance.metric(), instance.system(), instance.strategy(), f, v);
    EXPECT_NEAR(result.per_client_mean_delay[static_cast<std::size_t>(v)],
                analytic, 0.05 * analytic + 0.05)
        << "client " << v;
  }
  EXPECT_NEAR(result.overall_mean_delay, core::average_max_delay(instance, f),
              0.05 * core::average_max_delay(instance, f) + 0.05);
}

TEST(Simulator, SequentialDelayMatchesTotalDelay) {
  const core::QppInstance instance =
      make_er_instance(8, 0.5, 5.0, /*topology_seed=*/5, quorum::majority(3));
  const core::Placement f = {0, 4, 6};

  SimulationConfig config = make_config(/*seed=*/17, /*duration=*/4000.0);
  config.mode = AccessMode::kSequential;
  const SimulationResult result = simulate(instance, f, config);

  const double analytic = core::average_total_delay(instance, f);
  EXPECT_NEAR(result.overall_mean_delay, analytic, 0.05 * analytic + 0.05);
}

TEST(Simulator, NodeAccessShareMatchesLoad) {
  // The fraction of probes hitting node v converges to load_f(v).
  const core::QppInstance instance =
      make_er_instance(6, 0.6, 4.0, /*topology_seed=*/7, quorum::grid(2));
  const core::Placement f = {2, 2, 4, 5};  // two elements stacked on node 2

  const SimulationConfig config =
      make_config(/*seed=*/23, /*duration=*/3000.0);
  const SimulationResult result = simulate(instance, f, config);

  const std::vector<double> loads = core::node_loads(
      instance.element_loads(), f, instance.num_nodes());
  for (int v = 0; v < 6; ++v) {
    EXPECT_NEAR(result.per_node_access_share[static_cast<std::size_t>(v)],
                loads[static_cast<std::size_t>(v)], 0.03)
        << "node " << v;
  }
}

TEST(Simulator, WarmupExcludesEarlyAccesses) {
  const core::QppInstance instance =
      make_instance(graph::path_graph(4), quorum::grid(2));
  const core::Placement f = {0, 1, 2, 3};
  const SimulationConfig with_warmup =
      make_config(/*seed=*/3, /*duration=*/500.0, /*warmup=*/400.0);
  const SimulationConfig without = make_config(/*seed=*/3, /*duration=*/500.0);
  const auto a = simulate(instance, f, with_warmup);
  const auto b = simulate(instance, f, without);
  EXPECT_LT(a.completed_accesses, b.completed_accesses);
  EXPECT_GT(a.completed_accesses, 0);
}

TEST(Simulator, HistogramCoversSamePopulationAsMeans) {
  // The latency histogram applies the identical warmup exclusion as the
  // means: same count, and (the samples being summed in the same order)
  // bit-identical mean.
  const core::QppInstance instance =
      make_instance(graph::path_graph(4), quorum::grid(2));
  const core::Placement f = {0, 1, 2, 3};
  const SimulationConfig config =
      make_config(/*seed=*/11, /*duration=*/500.0, /*warmup=*/100.0);
  const SimulationResult result = simulate(instance, f, config);
  EXPECT_EQ(result.access_delay.count(),
            static_cast<std::uint64_t>(result.completed_accesses));
  EXPECT_EQ(result.access_delay.mean(), result.overall_mean_delay);
  EXPECT_GT(result.access_delay.quantile(0.99),
            result.access_delay.quantile(0.50) * (1.0 - 1e-12));
  EXPECT_GE(result.access_delay.max(), result.overall_mean_delay);
  // No queueing configured: the queue-wait histogram stays empty and all
  // queue depths are zero.
  EXPECT_EQ(result.queue_wait.count(), 0u);
  for (double depth : result.per_node_mean_queue_depth) {
    EXPECT_EQ(depth, 0.0);
  }
}

TEST(Simulator, QueueDepthStatsTrackContention) {
  // One node hosts every element with a service rate well below the offered
  // probe rate: its queue must build up, all other nodes stay idle.
  const core::QppInstance instance =
      make_instance(graph::path_graph(4), quorum::grid(2));
  const core::Placement f = {0, 0, 0, 0};
  SimulationConfig config = make_config(/*seed=*/13, /*duration=*/300.0);
  config.arrival_rate_per_client = 2.0;
  config.service_rate = 1.0;
  const SimulationResult result = simulate(instance, f, config);
  EXPECT_GT(result.per_node_max_queue_depth[0], 1);
  EXPECT_GT(result.per_node_mean_queue_depth[0], 0.0);
  for (int v = 1; v < 4; ++v) {
    EXPECT_EQ(result.per_node_max_queue_depth[static_cast<std::size_t>(v)], 0);
    EXPECT_EQ(result.per_node_mean_queue_depth[static_cast<std::size_t>(v)],
              0.0);
  }
  EXPECT_GT(result.queue_wait.count(), 0u);
  // Under heavy overload most probes wait: p90 wait strictly positive.
  EXPECT_GT(result.queue_wait.quantile(0.9), 0.0);
}

TEST(Simulator, QueueingInflatesDelayUnderOverload) {
  // One node hosts everything; a service rate below the offered probe rate
  // must blow delays up well beyond the analytic (queue-free) value.
  const core::QppInstance instance =
      make_instance(graph::star_graph(6), quorum::grid(2));
  const core::Placement all_on_hub = {0, 0, 0, 0};

  const SimulationConfig free_config =
      make_config(/*seed=*/9, /*duration=*/800.0);
  const double no_queue =
      simulate(instance, all_on_hub, free_config).overall_mean_delay;

  SimulationConfig loaded = free_config;
  // Offered probe load on the hub: 6 clients * rate 1 * 3 probes = 18/s.
  loaded.service_rate = 10.0;  // below offered load -> saturation
  const double saturated =
      simulate(instance, all_on_hub, loaded).overall_mean_delay;
  EXPECT_GT(saturated, no_queue + 5.0);

  SimulationConfig provisioned = free_config;
  provisioned.service_rate = 200.0;  // far above offered load
  const double provisioned_delay =
      simulate(instance, all_on_hub, provisioned).overall_mean_delay;
  EXPECT_NEAR(provisioned_delay, no_queue + 1.0 / 200.0, 0.05);
}

TEST(Simulator, UtilizationTracksServiceShare) {
  const core::QppInstance instance =
      make_instance(graph::star_graph(5), quorum::majority(3));
  const core::Placement f = {1, 2, 3};
  SimulationConfig config = make_config(/*seed=*/31, /*duration=*/2000.0);
  config.service_rate = 50.0;
  const SimulationResult result = simulate(instance, f, config);
  // majority(3) has t = 2, so load(u) = 2/3. Offered probe rate per replica
  // node = total access rate (5/s) * 2/3 = 10/3; utilization = (10/3)/50.
  for (int v = 1; v <= 3; ++v) {
    EXPECT_NEAR(result.per_node_utilization[static_cast<std::size_t>(v)],
                10.0 / 3.0 / 50.0, 0.01)
        << "node " << v;
  }
  EXPECT_DOUBLE_EQ(result.per_node_utilization[0], 0.0);
}

TEST(Simulator, DeterministicUnderFixedSeed) {
  const core::QppInstance instance =
      make_instance(graph::path_graph(5), quorum::majority(3));
  const core::Placement f = {0, 2, 4};
  const SimulationConfig config =
      make_config(/*seed=*/77, /*duration=*/200.0);
  const auto a = simulate(instance, f, config);
  const auto b = simulate(instance, f, config);
  EXPECT_EQ(a.completed_accesses, b.completed_accesses);
  EXPECT_DOUBLE_EQ(a.overall_mean_delay, b.overall_mean_delay);
}

TEST(Simulator, NearestQuorumPolicyMatchesClosestQuorumDelay) {
  const core::QppInstance instance =
      make_er_instance(8, 0.5, 5.0, /*topology_seed=*/41, quorum::grid(2));
  const core::Placement f = {0, 2, 5, 7};
  SimulationConfig config = make_config(/*seed=*/43, /*duration=*/2000.0);
  config.selection = SelectionPolicy::kNearestQuorum;
  const SimulationResult result = simulate(instance, f, config);
  double analytic = 0.0;
  for (int v = 0; v < 8; ++v) {
    analytic += core::closest_quorum_delay(instance.metric(),
                                           instance.system(), f, v) /
                8.0;
  }
  EXPECT_NEAR(result.overall_mean_delay, analytic, 0.05 * analytic + 0.05);
}

TEST(Simulator, NearestQuorumNeverSlowerThanStrategy) {
  const core::QppInstance instance =
      make_er_instance(10, 0.4, 6.0, /*topology_seed=*/47, quorum::majority(5));
  const core::Placement f = {0, 2, 4, 6, 8};
  const SimulationConfig strategy_config =
      make_config(/*seed=*/3, /*duration=*/1500.0);
  SimulationConfig nearest_config = strategy_config;
  nearest_config.selection = SelectionPolicy::kNearestQuorum;
  const double by_strategy =
      simulate(instance, f, strategy_config).overall_mean_delay;
  const double by_nearest =
      simulate(instance, f, nearest_config).overall_mean_delay;
  // Sampling noise aside, min over quorums <= expectation over quorums.
  EXPECT_LE(by_nearest, by_strategy + 0.05 * by_strategy + 0.05);
}

TEST(Simulator, JitterValidated) {
  const core::QppInstance instance =
      make_instance(graph::path_graph(4), quorum::grid(2));
  SimulationConfig config = make_config(/*seed=*/1, /*duration=*/100.0);
  config.latency_jitter = 1.0;
  EXPECT_THROW(simulate(instance, {0, 1, 2, 3}, config),
               std::invalid_argument);
  config.latency_jitter = -0.1;
  EXPECT_THROW(simulate(instance, {0, 1, 2, 3}, config),
               std::invalid_argument);
}

TEST(Simulator, JitterBiasesParallelDelayUpward) {
  // Mean-preserving per-probe jitter raises E[max], leaves E[sum] intact.
  const core::QppInstance instance =
      make_er_instance(8, 0.5, 5.0, /*topology_seed=*/53, quorum::grid(2));
  const core::Placement f = {0, 2, 4, 6};

  const SimulationConfig clean = make_config(/*seed=*/7, /*duration=*/3000.0);
  SimulationConfig noisy = clean;
  noisy.latency_jitter = 0.5;

  const double clean_parallel = simulate(instance, f, clean).overall_mean_delay;
  const double noisy_parallel = simulate(instance, f, noisy).overall_mean_delay;
  EXPECT_GT(noisy_parallel, clean_parallel);

  SimulationConfig clean_seq = clean;
  clean_seq.mode = AccessMode::kSequential;
  SimulationConfig noisy_seq = noisy;
  noisy_seq.mode = AccessMode::kSequential;
  const double clean_total =
      simulate(instance, f, clean_seq).overall_mean_delay;
  const double noisy_total =
      simulate(instance, f, noisy_seq).overall_mean_delay;
  EXPECT_NEAR(noisy_total, clean_total, 0.05 * clean_total + 0.02);
}

TEST(Simulator, ZeroWeightClientsNeverIssue) {
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(4));
  const quorum::QuorumSystem system = quorum::majority(3);
  std::vector<double> weights = {1.0, 1.0, 0.0, 0.0};
  core::QppInstance instance(metric, std::vector<double>(4, 1e9), system,
                             quorum::AccessStrategy::uniform(system), weights);
  const SimulationConfig config = make_config(/*seed=*/5, /*duration=*/300.0);
  const auto result = simulate(instance, {0, 1, 2}, config);
  EXPECT_EQ(result.per_client_count[2], 0);
  EXPECT_EQ(result.per_client_count[3], 0);
  EXPECT_GT(result.per_client_count[0], 0);
}

// --- Pinned runs -----------------------------------------------------------
//
// Each *Pinned case hashes (FNV-1a) the bits of every SimulationResult
// field, both histograms' buckets, the availability series and the
// access-log bytes, and separately the sim.* counters, so the event order,
// the RNG draw order and every statistic of the engine are pinned exactly:
// a change to how the engine stores accesses must reproduce them. In every
// case some events outlive the access they belong to (deadlines armed far
// above the probes' paths, or replies held up by queues, jitter and gray
// windows), so a stale event meets a slot the access table has since
// handed to a younger access: reading that access as the stale event's,
// or starting an access on its slot's leftover state, shifts the hash.

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof(v));
  }
  template <typename T>
  void values(const std::vector<T>& vs) {
    value(vs.size());
    for (const T v : vs) value(v);
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void hash_histogram(Fnv1a& h, const obs::LogHistogram& histogram) {
  h.value(histogram.count());
  h.value(histogram.underflow());
  h.value(histogram.overflow());
  h.value(histogram.min());
  h.value(histogram.max());
  h.value(histogram.sum());
  h.values(histogram.buckets());
}

struct PinnedRun {
  std::uint64_t result_and_log = 0;  ///< every result field + log bytes
  std::uint64_t counters = 0;        ///< the sim.* counters
  std::int64_t resolved = 0;         ///< completed + failed, for the eye
};

PinnedRun pinned_run(const core::QppInstance& instance,
                     const core::Placement& placement,
                     SimulationConfig config,
                     obs::AccessLogConfig log_config = {}) {
  obs::Registry::instance().reset_all();
  std::stringstream log;
  obs::AccessLogWriter writer(log, log_config);
  config.access_log = &writer;
  const SimulationResult r = simulate(instance, placement, config);
  writer.close();

  Fnv1a h;
  h.value(r.completed_accesses);
  h.value(r.overall_mean_delay);
  h.values(r.per_client_mean_delay);
  h.values(r.per_client_count);
  h.values(r.per_node_access_share);
  h.values(r.per_node_utilization);
  hash_histogram(h, r.access_delay);
  hash_histogram(h, r.queue_wait);
  h.values(r.per_node_mean_queue_depth);
  h.values(r.per_node_max_queue_depth);
  h.value(r.failed_accesses);
  h.value(r.unavailable_accesses);
  h.value(r.timed_out_attempts);
  h.value(r.retries);
  h.value(r.availability);
  h.values(r.availability_series);
  h.value(r.safety_ok);
  const std::string bytes = log.str();
  h.value(bytes.size());
  h.bytes(bytes.data(), bytes.size());

  Fnv1a c;
  for (const auto& [name, count] : obs::Registry::instance().counter_values()) {
    if (name.rfind("sim.", 0) != 0) continue;
    c.bytes(name.data(), name.size());
    c.value(count);
  }
  return {h.hash(), c.hash(), r.completed_accesses + r.failed_accesses};
}

void expect_pinned(const PinnedRun& run, std::uint64_t result_and_log,
                   std::uint64_t counters, std::int64_t resolved) {
  EXPECT_EQ(run.resolved, resolved);
  EXPECT_EQ(run.result_and_log, result_and_log)
      << std::hex << "0x" << run.result_and_log;
  // The counters compile out with QPLACE_OBS=OFF.
  if (obs::compiled_in()) {
    EXPECT_EQ(run.counters, counters) << std::hex << "0x" << run.counters;
  }
}

/// Majority(5) on a 14-node Erdos-Renyi graph, one element per node.
core::QppInstance pinned_er_instance() {
  return make_er_instance(14, 0.4, 6.0, /*topology_seed=*/9,
                          quorum::majority(5));
}
const core::Placement kErPlacement = {0, 3, 5, 7, 9};

/// Fault-free baseline with timeouts armed far above any probe's path.
SimulationConfig pinned_config(std::uint64_t seed) {
  SimulationConfig config = make_config(seed, /*duration=*/300.0,
                                        /*warmup=*/20.0);
  config.probe_timeout = 40.0;
  config.max_attempts = 3;
  config.availability_bucket = 50.0;
  return config;
}

/// The golden fault instance of tests/test_faults.cpp: path P5,
/// majority(5), identity placement.
core::QppInstance fault_instance() {
  return make_instance(graph::path_graph(5), quorum::majority(5));
}

FaultSchedule load_fixture(const std::string& name) {
  std::ifstream in(std::string(QPLACE_FAULT_FIXTURES) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  return load_fault_schedule(in);
}

/// A fault run: timeouts, retries up to 4 attempts and a backoff cap that
/// binds from the third retry on.
SimulationConfig fault_config(const FaultSchedule& schedule) {
  SimulationConfig config = make_config(/*seed=*/31, /*duration=*/300.0,
                                        /*warmup=*/10.0);
  config.arrival_rate_per_client = 1.5;
  config.faults = &schedule;
  config.probe_timeout = 8.0;
  config.max_attempts = 4;
  config.retry_backoff = 0.5;
  config.retry_backoff_cap = 1.5;
  config.availability_bucket = 25.0;
  return config;
}

TEST(Simulator, ParallelQueueingJitterPinned) {
  SimulationConfig config = pinned_config(/*seed=*/101);
  config.service_rate = 12.0;
  config.latency_jitter = 0.1;
  const PinnedRun run = pinned_run(pinned_er_instance(), kErPlacement, config);
  expect_pinned(run, 0xed3d6ef8adf2a02fULL, 0x991f0e815e95d45fULL, 3787);
}

TEST(Simulator, SequentialPinned) {
  SimulationConfig config = pinned_config(/*seed=*/103);
  config.mode = AccessMode::kSequential;
  config.latency_jitter = 0.1;
  config.service_rate = 15.0;
  obs::AccessLogConfig log_config;
  log_config.sample_rate = 0.5;
  log_config.sample_seed = 4;
  const PinnedRun run =
      pinned_run(pinned_er_instance(), kErPlacement, config, log_config);
  expect_pinned(run, 0x3c2af3e7cff37ddcULL, 0x9796b6fc0a9ae57bULL, 3747);
}

TEST(Simulator, RelayPinned) {
  SimulationConfig config = pinned_config(/*seed=*/107);
  config.relay_node = 4;
  config.service_rate = 10.0;
  const PinnedRun run = pinned_run(pinned_er_instance(), kErPlacement, config);
  expect_pinned(run, 0x6a64a0d48388d100ULL, 0x7e73a8b129f183c8ULL, 3797);
}

TEST(Simulator, NearestQuorumPinned) {
  SimulationConfig config = pinned_config(/*seed=*/109);
  config.selection = SelectionPolicy::kNearestQuorum;
  config.latency_jitter = 0.1;
  config.service_rate = 30.0;
  const PinnedRun run = pinned_run(pinned_er_instance(), kErPlacement, config);
  expect_pinned(run, 0xcca9a7bd9fd38390ULL, 0xa2f67decfa6bb6cdULL, 3805);
}

TEST(Simulator, TiedEventTimesPinned) {
  // Unit edges, no jitter, integer timeouts and two grid elements on one
  // node: probes of one access reach that node at the same instant, and
  // replies, deadlines and arrivals tie across accesses.
  const core::QppInstance instance =
      make_instance(graph::grid_mesh(4), quorum::grid(2));
  SimulationConfig config = pinned_config(/*seed=*/113);
  config.service_rate = 40.0;
  config.probe_timeout = 4.0;
  const PinnedRun run = pinned_run(instance, {5, 5, 10, 6}, config);
  expect_pinned(run, 0x1010a3190dc52880ULL, 0xf6bfeec67777fb63ULL, 4483);
}

TEST(Simulator, CrashHeavyPinned) {
  const FaultSchedule schedule = load_fixture("crash_heavy.json");
  SimulationConfig config = fault_config(schedule);
  config.service_rate = 15.0;
  config.latency_jitter = 0.1;
  config.probe_timeout = 4.0;
  const PinnedRun run = pinned_run(fault_instance(), {0, 1, 2, 3, 4}, config);
  expect_pinned(run, 0x5dd26218bd2d12b9ULL, 0x6902662567760a0ULL, 2051);
}

TEST(Simulator, PartitionPinned) {
  const FaultSchedule schedule = load_fixture("partition.json");
  SimulationConfig config = fault_config(schedule);
  config.service_rate = 12.0;
  const PinnedRun run = pinned_run(fault_instance(), {0, 1, 2, 3, 4}, config);
  expect_pinned(run, 0x39ae09495e4f1befULL, 0x37b73647bfb10476ULL, 2162);
}

TEST(Simulator, GrayPinned) {
  const FaultSchedule schedule = load_fixture("gray.json");
  SimulationConfig config = fault_config(schedule);
  config.latency_jitter = 0.1;
  config.service_rate = 8.0;
  config.probe_timeout = 9.0;
  const PinnedRun run = pinned_run(fault_instance(), {0, 1, 2, 3, 4}, config);
  expect_pinned(run, 0x82111124ba2cd9e3ULL, 0xf8e45e8f24c89a96ULL, 2156);
}

TEST(Simulator, ManyAccessesInFlightPinned) {
  // While the partition cuts clients 0 and 1 off from nodes 2-4, most
  // first attempts lose a probe, time out after 30 and retry after a
  // backoff of 10: at 100 accesses per unit time, thousands of accesses are
  // in flight at once, and the access table doubles several times.
  const FaultSchedule schedule = load_fixture("partition.json");
  SimulationConfig config = fault_config(schedule);
  config.duration = 150.0;
  config.arrival_rate_per_client = 20.0;
  config.probe_timeout = 30.0;
  config.retry_backoff = 10.0;
  config.retry_backoff_cap = 40.0;
  obs::AccessLogConfig log_config;
  log_config.sample_rate = 0.1;
  const PinnedRun run =
      pinned_run(fault_instance(), {0, 1, 2, 3, 4}, config, log_config);
  expect_pinned(run, 0xcc02f896e60ad22cULL, 0x10fd3e1b0f522f46ULL, 13748);
}

}  // namespace
}  // namespace qp::sim
