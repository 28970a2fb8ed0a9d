/// Unit tests for the live-telemetry layer (src/obs/telemetry.*,
/// docs/OBSERVABILITY.md "Live telemetry"): the streamed
/// qplace.timeseries.v2 JSONL -- each sample on the stream as a complete
/// line the moment it is taken -- and its deterministic / nondeterministic
/// split, the TTY progress meter, and -- the load-bearing property --
/// byte-identical deterministic series from the simulator at 1 vs 8
/// threads.

#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/qpp_solver.hpp"
#include "graph/generators.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"
#include "sim/simulator.hpp"

namespace qp {
namespace {

/// Splits a JSONL document into lines (no trailing empty line).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

/// The parsed sample records of a series document (header skipped).
std::vector<obs::json::Value> records_of(const std::string& jsonl) {
  std::vector<obs::json::Value> out;
  const std::vector<std::string> lines = lines_of(jsonl);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    out.push_back(obs::json::parse(lines[i]));
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Telemetry, EachSampleIsOnTheStreamAsACompleteLine) {
  // A real file, read back through a second handle while the snapshotter
  // is still alive: what `tail -f` of --series-out sees mid-run.
  const std::string path =
      ::testing::TempDir() + "qplace_telemetry_stream.jsonl";
  std::ofstream out(path);
  obs::MetricsSnapshotter snapshotter(out, {{"seed", "1"}});
  EXPECT_EQ(lines_of(read_file(path)).size(), 1u);  // header only

  for (int k = 1; k <= 3; ++k) {
    snapshotter.sample(static_cast<double>(k));
    const std::string text = read_file(path);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');  // no partial trailing line
    const std::vector<std::string> lines = lines_of(text);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(1 + k));
    EXPECT_EQ(snapshotter.samples(), static_cast<std::uint64_t>(k));
    EXPECT_EQ(obs::json::parse(lines.back())
                  .find("deterministic")
                  ->get_number("t", -1.0),
              static_cast<double>(k));
  }
}

TEST(Telemetry, SampleCapturesRegistryAndCallerValues) {
  obs::Registry::instance().reset_all();
  obs::Registry::instance().counter("telemetry_test.events").add(7);

  std::ostringstream out;
  obs::MetricsSnapshotter snapshotter(out, {});
  EXPECT_EQ(snapshotter.samples(), 0u);
  EXPECT_TRUE(records_of(out.str()).empty());

  snapshotter.sample(10.0, {{"availability", 0.25}});
  EXPECT_EQ(snapshotter.samples(), 1u);
  const std::vector<obs::json::Value> records = records_of(out.str());
  ASSERT_EQ(records.size(), 1u);
  const obs::json::Value* det = records[0].find("deterministic");
  const obs::json::Value* nondet = records[0].find("nondeterministic");
  EXPECT_EQ(det->get_number("t", -1.0), 10.0);
  EXPECT_EQ(det->find("counters")->get_number("telemetry_test.events", -1.0),
            7.0);
  EXPECT_EQ(det->find("values")->get_number("availability", -1.0), 0.25);
  EXPECT_GE(nondet->get_number("wall_ms", -1.0), 0.0);
}

TEST(Telemetry, WatchedHistogramsAreDigestedAndUnregisterable) {
  std::ostringstream out;
  obs::MetricsSnapshotter snapshotter(out, {});
  obs::LogHistogram delays;
  for (int i = 1; i <= 100; ++i) delays.record(static_cast<double>(i));
  snapshotter.watch_histogram("delays", &delays);

  snapshotter.sample(1.0);
  // nullptr unregisters: the next sample no longer touches the histogram
  // (the simulator relies on this before its result goes out of scope).
  snapshotter.watch_histogram("delays", nullptr);
  snapshotter.sample(2.0);

  const std::vector<obs::json::Value> records = records_of(out.str());
  ASSERT_EQ(records.size(), 2u);
  const obs::json::Value* point =
      records[0].find("deterministic")->find("histograms")->find("delays");
  ASSERT_NE(point, nullptr);
  EXPECT_EQ(point->get_number("count", -1.0), 100.0);
  EXPECT_EQ(point->get_number("sum", -1.0), delays.sum());
  EXPECT_EQ(point->get_number("p50", -1.0), delays.quantile(0.50));
  EXPECT_EQ(point->get_number("p99", -1.0), delays.quantile(0.99));
  EXPECT_EQ(
      records[1].find("deterministic")->find("histograms")->find("delays"),
      nullptr);
}

TEST(Telemetry, EmptyHistogramQuantilesRenderAsNull) {
  std::ostringstream out;
  obs::MetricsSnapshotter snapshotter(out, {});
  obs::LogHistogram empty;
  snapshotter.watch_histogram("empty", &empty);
  snapshotter.sample(1.0);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"p50\": null"), std::string::npos) << lines[1];
  // The line still parses, and the nulls type as JSON null, not 0.
  const obs::json::Value parsed = obs::json::parse(lines[1]);
  const obs::json::Value* hist =
      parsed.find("deterministic")->find("histograms")->find("empty");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get_number("count", -1.0), 0.0);
  EXPECT_TRUE(hist->find("p99")->is_null());
}

TEST(Telemetry, JsonlFollowsSchemaAndSplitsDeterminism) {
  obs::Registry::instance().reset_all();
  std::ostringstream out;
  obs::MetricsSnapshotter snapshotter(out, {{"seed", "42"}});
  snapshotter.sample(5.0, {{"availability", 1.0}});
  snapshotter.sample(10.0, {{"availability", 0.5}});

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);

  // The header is written before any sample exists, so it carries only
  // what is known up front.
  const obs::json::Value header = obs::json::parse(lines[0]);
  EXPECT_EQ(header.get_string("schema", ""), "qplace.timeseries.v2");
  EXPECT_EQ(header.find("context")->get_string("seed", ""), "42");
  EXPECT_EQ(header.object.size(), 2u);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const obs::json::Value record = obs::json::parse(lines[i]);
    const obs::json::Value* det = record.find("deterministic");
    const obs::json::Value* nondet = record.find("nondeterministic");
    ASSERT_NE(det, nullptr) << lines[i];
    ASSERT_NE(nondet, nullptr) << lines[i];
    // Wall time lives only on the nondeterministic side.
    EXPECT_EQ(det->find("wall_ms"), nullptr);
    EXPECT_NE(nondet->find("wall_ms"), nullptr);
    EXPECT_NE(det->find("t"), nullptr);
    EXPECT_NE(det->find("counters"), nullptr);
  }
  const obs::json::Value first = obs::json::parse(lines[1]);
  EXPECT_EQ(first.find("deterministic")->get_number("t", -1.0), 5.0);
  EXPECT_EQ(first.find("deterministic")
                ->find("values")
                ->get_number("availability", -1.0),
            1.0);
}

TEST(Telemetry, ProgressMeterDrawsAndFinishesIdempotently) {
  std::ostringstream out;
  obs::ProgressMeter meter(out, 2.0);
  obs::ProgressStats stats;
  stats.sim_time = 500.0;
  stats.duration = 1000.0;
  stats.resolved = 105;
  stats.completed = 100;
  stats.failed = 5;
  stats.availability = 100.0 / 105.0;
  stats.p99 = 3.0;
  meter.update(stats);
  meter.finish();
  meter.finish();  // idempotent: no second newline

  const std::string text = out.str();
  EXPECT_NE(text.find("sim  50%"), std::string::npos) << text;
  EXPECT_NE(text.find("t=500/1000"), std::string::npos) << text;
  EXPECT_NE(text.find("100 ok + 5 failed"), std::string::npos) << text;
  EXPECT_NE(text.find("avail 0.9524"), std::string::npos) << text;
  EXPECT_NE(text.find("1.50x bound"), std::string::npos) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST(Telemetry, ProgressMeterNonLiveSuppressesRedrawsUntilFinish) {
  std::ostringstream out;
  obs::ProgressMeter meter(out, 2.0, /*live=*/false);
  EXPECT_FALSE(meter.live());
  obs::ProgressStats stats;
  stats.sim_time = 250.0;
  stats.duration = 1000.0;
  stats.resolved = 10;
  stats.completed = 10;
  meter.update(stats);
  EXPECT_TRUE(out.str().empty()) << out.str();  // updates only record stats
  stats.sim_time = 900.0;
  stats.completed = 42;
  meter.update(stats);
  EXPECT_TRUE(out.str().empty()) << out.str();
  meter.finish();

  // One plain summary line of the *latest* stats: no carriage returns to
  // re-draw in place, no erase padding -- safe in a redirected log.
  const std::string text = out.str();
  EXPECT_EQ(text.find('\r'), std::string::npos) << text;
  EXPECT_NE(text.find("sim  90%"), std::string::npos) << text;
  EXPECT_NE(text.find("42 ok"), std::string::npos) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Telemetry, ProgressMeterExplicitLiveKeepsCarriageReturns) {
  std::ostringstream out;
  obs::ProgressMeter meter(out, std::nan(""), /*live=*/true);
  EXPECT_TRUE(meter.live());
  obs::ProgressStats stats;
  stats.sim_time = 1.0;
  stats.duration = 10.0;
  meter.update(stats);
  EXPECT_NE(out.str().find('\r'), std::string::npos);
}

TEST(Telemetry, ProgressMeterAutoDetectTreatsPlainStreamsAsLive) {
  // An ostringstream has no file descriptor to consult; the two-argument
  // constructor must keep the historical live behavior for it.
  std::ostringstream out;
  obs::ProgressMeter meter(out, 2.0);
  EXPECT_TRUE(meter.live());
}

TEST(Telemetry, ProgressMeterOmitsP99AndBoundWhenUnavailable) {
  std::ostringstream out;
  obs::ProgressMeter meter(out, std::nan(""));  // no certified bound
  obs::ProgressStats stats;
  stats.sim_time = 10.0;
  stats.duration = 100.0;
  stats.p99 = std::nan("");  // empty histogram so far
  meter.update(stats);
  meter.finish();
  const std::string text = out.str();
  EXPECT_EQ(text.find("p99"), std::string::npos) << text;
  EXPECT_EQ(text.find("bound"), std::string::npos) << text;
}

// ------------------------------------------------------- simulator coupling

core::QppInstance make_instance() {
  std::mt19937_64 rng(17);
  const graph::Metric metric = graph::Metric::from_graph(
      graph::erdos_renyi(12, 0.5, rng, 1.0, 5.0));
  const quorum::QuorumSystem system = quorum::grid(3);
  return core::QppInstance(
      metric, std::vector<double>(12, 1e9), system,
      quorum::AccessStrategy::uniform(system));
}

/// One telemetry-enabled simulation under a pool of \p threads; returns the
/// streamed series.
std::string run_with_telemetry(const core::QppInstance& instance,
                               const core::Placement& placement,
                               int threads) {
  exec::set_num_threads(threads);
  obs::Registry::instance().reset_all();
  std::ostringstream out;
  obs::MetricsSnapshotter snapshotter(out, {});
  sim::SimulationConfig config;
  config.seed = 9;
  config.duration = 200.0;
  config.warmup = 10.0;
  config.service_rate = 40.0;
  config.telemetry = &snapshotter;
  config.telemetry_interval = 20.0;
  sim::simulate(instance, placement, config);
  exec::set_num_threads(0);
  return out.str();
}

/// Strips each sample line down to its deterministic object.
std::vector<std::string> deterministic_parts(const std::string& jsonl) {
  std::vector<std::string> out;
  const std::vector<std::string> lines = lines_of(jsonl);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string needle = "\"nondeterministic\"";
    const std::size_t cut = lines[i].find(needle);
    EXPECT_NE(cut, std::string::npos) << lines[i];
    out.push_back(lines[i].substr(0, cut));
  }
  return out;
}

TEST(Telemetry, SimulatorSeriesIsIdenticalAcrossThreadCounts) {
  const core::QppInstance instance = make_instance();
  const auto solved = core::solve_qpp(instance, core::QppSolveOptions{});
  ASSERT_TRUE(solved.has_value());

  const std::string one =
      run_with_telemetry(instance, solved->placement, 1);
  const std::string eight =
      run_with_telemetry(instance, solved->placement, 8);

  const std::vector<std::string> det_one = deterministic_parts(one);
  const std::vector<std::string> det_eight = deterministic_parts(eight);
  ASSERT_FALSE(det_one.empty());
  // Byte-identical deterministic prefixes, line by line: the sampling grid,
  // every counter, every histogram digest (docs/PARALLEL.md contract).
  ASSERT_EQ(det_one.size(), det_eight.size());
  for (std::size_t i = 0; i < det_one.size(); ++i) {
    EXPECT_EQ(det_one[i], det_eight[i]) << "snapshot " << i;
  }
}

TEST(Telemetry, SimulatorSamplesOnTheGridWithFinalSampleAtDuration) {
  const core::QppInstance instance = make_instance();
  const auto solved = core::solve_qpp(instance, core::QppSolveOptions{});
  ASSERT_TRUE(solved.has_value());

  obs::Registry::instance().reset_all();
  std::ostringstream out;
  obs::MetricsSnapshotter snapshotter(out, {});
  sim::SimulationConfig config;
  config.seed = 9;
  config.duration = 100.0;
  config.telemetry = &snapshotter;
  config.telemetry_interval = 25.0;
  // Mid-run, every sample taken so far is already a complete line.
  int mid_run_checks = 0;
  config.progress_interval = 10.0;
  config.on_progress = [&](const obs::ProgressStats& stats) {
    if (stats.sim_time >= config.duration) return;
    const std::string text = out.str();
    EXPECT_EQ(lines_of(text).size(), 1 + snapshotter.samples());
    EXPECT_EQ(text.back(), '\n');
    if (snapshotter.samples() > 0) ++mid_run_checks;
  };
  const sim::SimulationResult result =
      sim::simulate(instance, solved->placement, config);
  EXPECT_GT(mid_run_checks, 0);

  const std::vector<obs::json::Value> records = records_of(out.str());
  ASSERT_EQ(records.size(), 4u);  // t = 25, 50, 75 in-loop + final t = 100
  std::vector<const obs::json::Value*> det;
  for (const obs::json::Value& record : records) {
    det.push_back(record.find("deterministic"));
  }
  EXPECT_EQ(det[0]->get_number("t", -1.0), 25.0);
  EXPECT_EQ(det[1]->get_number("t", -1.0), 50.0);
  EXPECT_EQ(det[2]->get_number("t", -1.0), 75.0);
  EXPECT_EQ(det[3]->get_number("t", -1.0), 100.0);

  // Counters only ever grow along the series, and the counter *set* is
  // identical in every sample (zero-add registration up front -- the set
  // must not depend on which events happened to fire).
  for (std::size_t i = 1; i < det.size(); ++i) {
    const auto& counters = det[i]->find("counters")->object;
    const auto& previous = det[i - 1]->find("counters")->object;
    ASSERT_EQ(counters.size(), previous.size());
    for (const auto& [name, value] : counters) {
      ASSERT_TRUE(previous.count(name)) << name;
      EXPECT_GE(value.number, previous.at(name).number) << name;
    }
  }
  // The final sample agrees with the run's result where both report the
  // same quantity.
  if (obs::compiled_in()) {
    EXPECT_EQ(det.back()->find("counters")->get_number(
                  "sim.completed_accesses", -1.0),
              static_cast<double>(result.completed_accesses));
  }
  // The simulator unregisters its watched result histograms before
  // returning; a sample taken now must not touch the (still alive here,
  // but in general destroyed) result.
  snapshotter.sample(101.0);
  const std::vector<obs::json::Value> after = records_of(out.str());
  ASSERT_EQ(after.size(), 5u);
  EXPECT_EQ(after.back().find("deterministic")->find("histograms")->find(
                "sim.access_delay"),
            nullptr);
}

}  // namespace
}  // namespace qp
