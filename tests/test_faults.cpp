#include "sim/fault_schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "quorum/constructions.hpp"
#include "quorum/read_write.hpp"
#include "sim/simulator.hpp"

namespace qp::sim {
namespace {

// Golden fault-schedule fixtures (tests/fixtures/faults/): three canonical
// failure shapes -- crash-heavy, partition, gray slowdown -- replayed
// against one pinned instance with pinned config. The exact counters below
// are the determinism contract made concrete: any engine change that
// shifts event ordering, retry policy, or RNG draw order shows up here as
// an exact-integer diff, not a flaky tolerance failure.

std::string fixture_path(const std::string& name) {
  return std::string(QPLACE_FAULT_FIXTURES) + "/" + name;
}

FaultSchedule load_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name));
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  return load_fault_schedule(in);
}

/// The pinned instance every golden case runs on: path P5 (d(i,j)=|i-j|),
/// majority(5) with the uniform strategy, identity placement.
core::QppInstance golden_instance() {
  const quorum::QuorumSystem system = quorum::majority(5);
  return core::QppInstance(
      graph::Metric::from_graph(graph::path_graph(5)),
      std::vector<double>(5, 1e9), system,
      quorum::AccessStrategy::uniform(system));
}

/// The pinned config: timeout 10 exceeds the worst fault-free path (4), so
/// only injected faults can trip it.
SimulationConfig golden_config(const FaultSchedule& schedule) {
  SimulationConfig config;
  config.duration = 100.0;
  config.arrival_rate_per_client = 1.0;
  config.seed = 99;
  config.faults = &schedule;
  config.probe_timeout = 10.0;
  config.max_attempts = 3;
  config.retry_backoff = 0.5;
  config.retry_backoff_cap = 8.0;
  config.availability_bucket = 25.0;
  return config;
}

// --- FaultSchedule semantics -----------------------------------------------

TEST(FaultScheduleTest, WindowsAreHalfOpen) {
  const FaultSchedule schedule({{2, 10.0, 20.0}}, {}, {});
  EXPECT_FALSE(schedule.crashed(2, 9.999));
  EXPECT_TRUE(schedule.crashed(2, 10.0));   // inclusive start
  EXPECT_TRUE(schedule.crashed(2, 19.999));
  EXPECT_FALSE(schedule.crashed(2, 20.0));  // exclusive end
  EXPECT_FALSE(schedule.crashed(1, 15.0));  // other nodes unaffected
}

TEST(FaultScheduleTest, PartitionIsSymmetricAndScoped) {
  const FaultSchedule schedule(
      {}, {{{0, 1}, {3, 4}, 5.0, 15.0}}, {});
  EXPECT_TRUE(schedule.partitioned(0, 3, 10.0));
  EXPECT_TRUE(schedule.partitioned(3, 0, 10.0));  // symmetric
  EXPECT_TRUE(schedule.partitioned(1, 4, 5.0));
  EXPECT_FALSE(schedule.partitioned(0, 1, 10.0));  // same side
  EXPECT_FALSE(schedule.partitioned(0, 2, 10.0));  // 2 is on neither side
  EXPECT_FALSE(schedule.partitioned(0, 3, 15.0));  // window over
}

TEST(FaultScheduleTest, OverlappingGrayWindowsMultiply) {
  const FaultSchedule schedule(
      {}, {}, {{1, 0.0, 50.0, 2.0}, {1, 20.0, 30.0, 3.0}});
  EXPECT_DOUBLE_EQ(schedule.gray_factor(1, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(schedule.gray_factor(1, 25.0), 6.0);
  EXPECT_DOUBLE_EQ(schedule.gray_factor(1, 60.0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.gray_factor(0, 25.0), 1.0);
}

TEST(FaultScheduleTest, FailedElementsCombinesCrashAndPartition) {
  // Placement: element u lives on node u. Client 0 at t=10 sees element 2
  // failed (crash) and elements 3, 4 failed (partitioned away); client 3
  // sees elements 0, 1 (other partition side) and 2 (crash) failed.
  const FaultSchedule schedule(
      {{2, 0.0, 100.0}}, {{{0, 1}, {3, 4}, 0.0, 100.0}}, {});
  const core::Placement f = {0, 1, 2, 3, 4};
  EXPECT_EQ(schedule.failed_elements(f, 0, 10.0),
            (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(schedule.failed_elements(f, 3, 10.0),
            (std::vector<bool>{true, true, true, false, false}));
  // After every window: nothing failed.
  EXPECT_EQ(schedule.failed_elements(f, 0, 100.0),
            (std::vector<bool>(5, false)));
}

TEST(FaultScheduleTest, AnyActiveDetectsOverlap) {
  const FaultSchedule schedule({{0, 10.0, 20.0}}, {}, {});
  EXPECT_TRUE(schedule.any_active(0.0, 100.0));
  EXPECT_TRUE(schedule.any_active(15.0, 16.0));
  EXPECT_FALSE(schedule.any_active(0.0, 9.0));
  EXPECT_FALSE(schedule.any_active(20.0, 30.0));  // [10,20) already over
  EXPECT_FALSE(FaultSchedule().any_active(0.0, 1e9));
}

TEST(FaultScheduleTest, ValidatesWindows) {
  EXPECT_THROW(FaultSchedule({{-1, 0.0, 1.0}}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule({{0, 5.0, 1.0}}, {}, {}),  // until < from
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule({}, {}, {{0, 0.0, 1.0, 0.5}}),  // factor < 1
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule({}, {{{0, 1}, {1, 2}, 0.0, 1.0}}, {}),
               std::invalid_argument);  // sides share node 1
  EXPECT_THROW(FaultSchedule({}, {{{1, 0}, {2, 3}, 0.0, 1.0}}, {}),
               std::invalid_argument);  // unsorted side
}

TEST(FaultScheduleTest, MaxNodeSpansAllWindowKinds) {
  EXPECT_EQ(FaultSchedule().max_node(), -1);
  const FaultSchedule schedule(
      {{1, 0.0, 1.0}}, {{{0, 2}, {7, 9}, 0.0, 1.0}}, {{4, 0.0, 1.0, 2.0}});
  EXPECT_EQ(schedule.max_node(), 9);
}

TEST(FaultScheduleTest, ParseRenderRoundTrips) {
  for (const char* name : {"crash_heavy.json", "partition.json", "gray.json"}) {
    const FaultSchedule schedule = load_fixture(name);
    const std::string rendered = render_fault_schedule(schedule);
    const FaultSchedule reparsed = parse_fault_schedule(rendered);
    EXPECT_EQ(render_fault_schedule(reparsed), rendered) << name;
    EXPECT_EQ(fault_schedule_digest(reparsed), fault_schedule_digest(schedule))
        << name;
  }
}

TEST(FaultScheduleTest, FixtureDigestsArePinned) {
  // The digest is stamped into access logs as "fault_digest"; drift here
  // means previously recorded logs stop cross-checking.
  EXPECT_EQ(fault_schedule_digest(load_fixture("crash_heavy.json")),
            "c865602846f50314");
  EXPECT_EQ(fault_schedule_digest(load_fixture("partition.json")),
            "465e461d9139e1d5");
  EXPECT_EQ(fault_schedule_digest(load_fixture("gray.json")),
            "b0091abcd06434c1");
}

TEST(FaultScheduleTest, ParseRejectsForeignSchemaAndGarbage) {
  EXPECT_THROW(parse_fault_schedule("{\"schema\": \"qplace.faults.v7\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_fault_schedule("{\"crashes\": []}"),
               std::runtime_error);  // schema tag missing
  EXPECT_THROW(parse_fault_schedule("not json"), std::runtime_error);
}

TEST(FaultScheduleTest, ParseRejectsNodeIdsThatAreNotIntegersInRange) {
  const auto crash = [](const std::string& node) {
    return "{\"schema\": \"qplace.faults.v1\", \"crashes\": [{\"node\": " +
           node + ", \"from\": 0, \"until\": 1}]}";
  };
  const auto gray = [](const std::string& node) {
    return "{\"schema\": \"qplace.faults.v1\", \"gray\": [{\"node\": " +
           node + ", \"from\": 0, \"until\": 1, \"factor\": 2}]}";
  };
  const auto partition = [](const std::string& side) {
    return "{\"schema\": \"qplace.faults.v1\", \"partitions\": [{\"a\": " +
           side + ", \"b\": [5], \"from\": 0, \"until\": 1}]}";
  };
  // A cast would turn 2.7 into node 2 and -0.5 into node 0, nodes the
  // document never named, and is undefined outside int range.
  for (const char* bad : {"2.7", "-0.5", "1e10", "-1", "2147483648"}) {
    EXPECT_THROW(parse_fault_schedule(crash(bad)), std::runtime_error) << bad;
    EXPECT_THROW(parse_fault_schedule(gray(bad)), std::runtime_error) << bad;
    EXPECT_THROW(parse_fault_schedule(partition(std::string("[") + bad + "]")),
                 std::runtime_error)
        << bad;
  }
  EXPECT_THROW(parse_fault_schedule(partition("[0.9]")), std::runtime_error);
  try {
    parse_fault_schedule(crash("2.7"));
    ADD_FAILURE() << "node 2.7 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("entry 1"), std::string::npos)
        << e.what();
  }
  // The integral extremes stay accepted.
  EXPECT_EQ(parse_fault_schedule(crash("2147483647")).max_node(), 2147483647);
  EXPECT_EQ(parse_fault_schedule(gray("4.0")).gray().front().node, 4);
  EXPECT_EQ(parse_fault_schedule(partition("[0, 3]")).max_node(), 5);
}

TEST(FaultScheduleTest, RandomScheduleIsDeterministicAndBounded) {
  RandomFaultOptions options;
  options.crash_rate = 1.5;
  options.mean_downtime = 20.0;
  options.partition_rate = 2.0;
  options.mean_partition_duration = 15.0;
  options.gray_rate = 1.0;
  options.mean_gray_duration = 30.0;
  options.gray_factor = 5.0;

  const FaultSchedule a = random_fault_schedule(12, 200.0, options, 42);
  const FaultSchedule b = random_fault_schedule(12, 200.0, options, 42);
  EXPECT_EQ(render_fault_schedule(a), render_fault_schedule(b));
  const FaultSchedule c = random_fault_schedule(12, 200.0, options, 43);
  EXPECT_NE(render_fault_schedule(a), render_fault_schedule(c));

  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.max_node(), 12);
  for (const CrashWindow& w : a.crashes()) {
    EXPECT_GE(w.from, 0.0);
    EXPECT_LE(w.until, 200.0);
  }
  for (const GrayWindow& w : a.gray()) {
    EXPECT_DOUBLE_EQ(w.factor, 5.0);
  }

  // All-zero rates: the empty schedule, for any seed.
  EXPECT_TRUE(
      random_fault_schedule(12, 200.0, RandomFaultOptions{}, 42).empty());
}

// --- Golden fault runs (exact counters) ------------------------------------

TEST(FaultSimulatorTest, CrashHeavyGoldenCounters) {
  // Nodes 0 and 1 down for the whole horizon: 7 of the 10 majority quorums
  // are dead, so most accesses burn one timeout and retry into the live
  // ones -- but every access eventually completes.
  const FaultSchedule schedule = load_fixture("crash_heavy.json");
  const SimulationResult result =
      simulate(golden_instance(), {0, 1, 2, 3, 4}, golden_config(schedule));
  EXPECT_EQ(result.completed_accesses, 431);
  EXPECT_EQ(result.failed_accesses, 0);
  EXPECT_EQ(result.unavailable_accesses, 0);
  EXPECT_EQ(result.timed_out_attempts, 392);
  EXPECT_EQ(result.retries, 388);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  EXPECT_TRUE(result.safety_ok);
  EXPECT_EQ(result.availability_series,
            (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
}

TEST(FaultSimulatorTest, PartitionGoldenCounters) {
  // {0,1} vs {2,3,4} during [25, 75): neither side can assemble a
  // 3-element majority it can reach, so mid-run accesses go unavailable
  // and the availability series dips exactly in the middle buckets.
  const FaultSchedule schedule = load_fixture("partition.json");
  const SimulationResult result =
      simulate(golden_instance(), {0, 1, 2, 3, 4}, golden_config(schedule));
  EXPECT_EQ(result.completed_accesses, 400);
  EXPECT_EQ(result.failed_accesses, 86);
  EXPECT_EQ(result.unavailable_accesses, 86);
  EXPECT_EQ(result.timed_out_attempts, 217);
  EXPECT_EQ(result.retries, 131);
  EXPECT_DOUBLE_EQ(result.availability, 400.0 / 486.0);
  EXPECT_TRUE(result.safety_ok);
  ASSERT_EQ(result.availability_series.size(), 4u);
  EXPECT_DOUBLE_EQ(result.availability_series[0], 1.0);
  EXPECT_DOUBLE_EQ(result.availability_series[1], 0.5495495495495496);
  EXPECT_DOUBLE_EQ(result.availability_series[2], 0.70967741935483875);
  EXPECT_DOUBLE_EQ(result.availability_series[3], 1.0);
}

TEST(FaultSimulatorTest, GrayGoldenCounters) {
  // Node 2 slowed 6x for the whole horizon: distance-2 clients see probes
  // arrive at 12 > timeout 10 and must retry around it; nobody fails
  // because liveness never changes -- the signature of a gray failure.
  const FaultSchedule schedule = load_fixture("gray.json");
  const SimulationResult result =
      simulate(golden_instance(), {0, 1, 2, 3, 4}, golden_config(schedule));
  EXPECT_EQ(result.completed_accesses, 450);
  EXPECT_EQ(result.failed_accesses, 0);
  EXPECT_EQ(result.unavailable_accesses, 0);
  EXPECT_EQ(result.timed_out_attempts, 197);
  EXPECT_EQ(result.retries, 195);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  EXPECT_TRUE(result.safety_ok);
}

TEST(FaultSimulatorTest, GoldenRunsReplayExactly) {
  // Same schedule + same seed -> identical counters, run-to-run.
  const FaultSchedule schedule = load_fixture("partition.json");
  const core::QppInstance instance = golden_instance();
  const SimulationConfig config = golden_config(schedule);
  const SimulationResult a = simulate(instance, {0, 1, 2, 3, 4}, config);
  const SimulationResult b = simulate(instance, {0, 1, 2, 3, 4}, config);
  EXPECT_EQ(a.completed_accesses, b.completed_accesses);
  EXPECT_EQ(a.failed_accesses, b.failed_accesses);
  EXPECT_EQ(a.timed_out_attempts, b.timed_out_attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.availability_series, b.availability_series);
  EXPECT_DOUBLE_EQ(a.overall_mean_delay, b.overall_mean_delay);
}

/// FNV-1a (64-bit) over a byte string, the repo's digest of record.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(FaultSimulatorTest, ManyWindowChurnGoldenCounters) {
  // The fixtures above hold one or two windows per node; this run holds the
  // churn benchmark's density -- 10 crash and 10 gray windows per node per
  // 10^4 time units, plus partitions -- on 64 nodes (8x8 torus, diameter 8)
  // with majority(5,3), so every node's fault lookup scans many windows,
  // overlapping gray windows multiply, and jitter plus queueing draw from
  // the simulation RNG. The counters and the access-log digest pin every
  // probe's fate, so any change in what a fault query answers shows here.
  RandomFaultOptions churn;
  churn.crash_rate = 10.0;
  churn.gray_rate = 10.0;
  churn.partition_rate = 0.5;
  const FaultSchedule schedule = random_fault_schedule(64, 1e4, churn, 11);
  ASSERT_EQ(schedule.crashes().size() + schedule.gray().size(), 1271u);

  const quorum::QuorumSystem system = quorum::majority(5, 3);
  const core::QppInstance instance(
      graph::Metric::from_graph(graph::torus(8)), std::vector<double>(64, 1e9),
      system, quorum::AccessStrategy::uniform(system));
  SimulationConfig config;
  config.duration = 1e4;
  config.arrival_rate_per_client = 0.005;
  config.service_rate = 2.0;
  config.latency_jitter = 0.1;
  config.warmup = 100.0;
  config.seed = 5;
  config.faults = &schedule;
  config.probe_timeout = 12.0;
  config.max_attempts = 3;
  std::ostringstream log_text;
  obs::AccessLogWriter log(log_text, obs::AccessLogConfig{});
  config.access_log = &log;
  const SimulationResult result =
      simulate(instance, {3, 17, 29, 42, 60}, config);
  log.close();

  EXPECT_EQ(result.completed_accesses, 3003);
  EXPECT_EQ(result.failed_accesses, 134);
  EXPECT_EQ(result.unavailable_accesses, 0);
  EXPECT_EQ(result.timed_out_attempts, 1390);
  EXPECT_EQ(result.retries, 1256);
  EXPECT_TRUE(result.safety_ok);
  EXPECT_EQ(fnv1a(log_text.str()), 0xb03d479b376d1466ULL);
}

// --- Engine semantics beyond the golden runs --------------------------------

TEST(FaultSimulatorTest, TimeoutsWithoutFaultsChangeNothing) {
  // Arming timeouts on a fault-free run must not perturb results: with the
  // deadline above every possible delay, no timeout fires and the RNG draw
  // order is identical to the plain engine's.
  const core::QppInstance instance = golden_instance();
  const core::Placement f = {0, 1, 2, 3, 4};
  SimulationConfig plain;
  plain.duration = 200.0;
  plain.seed = 7;
  SimulationConfig armed = plain;
  armed.probe_timeout = 50.0;
  const SimulationResult a = simulate(instance, f, plain);
  const SimulationResult b = simulate(instance, f, armed);
  EXPECT_EQ(a.completed_accesses, b.completed_accesses);
  EXPECT_DOUBLE_EQ(a.overall_mean_delay, b.overall_mean_delay);
  EXPECT_EQ(b.timed_out_attempts, 0);
  EXPECT_EQ(b.retries, 0);
}

TEST(FaultSimulatorTest, ValidatesFaultConfig) {
  const core::QppInstance instance = golden_instance();
  const core::Placement f = {0, 1, 2, 3, 4};
  const FaultSchedule schedule({{0, 0.0, 10.0}}, {}, {});

  SimulationConfig config;
  config.faults = &schedule;
  config.probe_timeout = 0.0;  // faults demand a positive timeout
  EXPECT_THROW(simulate(instance, f, config), std::invalid_argument);

  config.probe_timeout = 10.0;
  config.max_attempts = 0;
  EXPECT_THROW(simulate(instance, f, config), std::invalid_argument);
  config.max_attempts = 3;
  config.retry_backoff = -1.0;
  EXPECT_THROW(simulate(instance, f, config), std::invalid_argument);
  config.retry_backoff = 0.5;

  // Schedule references node 7; the instance has 5 nodes.
  const FaultSchedule oversized({{7, 0.0, 10.0}}, {}, {});
  config.faults = &oversized;
  EXPECT_THROW(simulate(instance, f, config), std::invalid_argument);
}

TEST(FaultSimulatorTest, SingleAttemptFailsFastUnderCrash) {
  // max_attempts = 1: no retries ever, crash-hit accesses fail with the
  // timeout outcome instead of recovering.
  const FaultSchedule schedule =
      FaultSchedule({{0, 0.0, 100.0}, {1, 0.0, 100.0}}, {}, {});
  SimulationConfig config = golden_config(schedule);
  config.max_attempts = 1;
  const SimulationResult result =
      simulate(golden_instance(), {0, 1, 2, 3, 4}, config);
  EXPECT_EQ(result.retries, 0);
  EXPECT_GT(result.failed_accesses, 0);
  EXPECT_EQ(result.unavailable_accesses, 0);  // quorum {2,3,4} stays live
  EXPECT_LT(result.availability, 1.0);
  EXPECT_EQ(result.failed_accesses, result.timed_out_attempts);
}

TEST(FaultSimulatorTest, SafetyViolationSurfacesOnReadWriteFamily) {
  // read-one-write-all reads do not pairwise intersect, so once a crash
  // forces re-selection the liveness oracle sees two disjoint live reads
  // and must latch safety_ok = false (the simulator keeps running).
  const quorum::CombinedWorkload workload =
      quorum::combine_uniform(quorum::read_one_write_all(3), 0.5);
  ASSERT_FALSE(workload.intersecting);
  core::QppInstance instance(
      graph::Metric::from_graph(graph::path_graph(3)),
      std::vector<double>(3, 1e9), workload.system, workload.strategy);
  const FaultSchedule schedule({{2, 0.0, 100.0}}, {}, {});
  SimulationConfig config;
  config.duration = 100.0;
  config.seed = 5;
  config.faults = &schedule;
  config.probe_timeout = 10.0;
  const SimulationResult result = simulate(instance, {0, 1, 2}, config);
  EXPECT_FALSE(result.safety_ok);
  EXPECT_GT(result.completed_accesses, 0);
}

TEST(FaultSimulatorTest, AvailabilitySeriesDisabledByDefault) {
  const FaultSchedule schedule = load_fixture("crash_heavy.json");
  SimulationConfig config = golden_config(schedule);
  config.availability_bucket = 0.0;
  const SimulationResult result =
      simulate(golden_instance(), {0, 1, 2, 3, 4}, config);
  EXPECT_TRUE(result.availability_series.empty());
}

}  // namespace
}  // namespace qp::sim
