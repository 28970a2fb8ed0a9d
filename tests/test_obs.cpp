/// Unit tests for the instrumentation layer (src/obs/, docs/OBSERVABILITY.md):
/// counter/timer/registry semantics, trace JSON well-formedness,
/// histogram quantiles against exact sorted-sample quantiles, and the
/// run-report schema. The whole file also compiles (and the macro tests stay
/// meaningful) under -DQPLACE_OBS=OFF via obs::compiled_in().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"

namespace qp {
namespace {

/// Structural JSON sanity: balanced braces/brackets outside strings and no
/// dangling commas. (CI additionally validates outputs with python3 -- this
/// is the dependency-free smoke check.)
bool looks_like_json_object(const std::string& text) {
  if (text.empty() || text.front() != '{' || text.back() != '}') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(Obs, CounterAccumulatesAndResets) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add(3);
  counter.add(4);
  EXPECT_EQ(counter.value(), 7u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Obs, RegistryReturnsStableInstruments) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset_all();
  obs::Counter& a = registry.counter("test.registry_stable");
  obs::Counter& b = registry.counter("test.registry_stable");
  EXPECT_EQ(&a, &b);  // same name -> same instrument (macros cache the ref)
  a.add(5);
  EXPECT_EQ(registry.counter_values().at("test.registry_stable"), 5u);
  registry.reset_all();
  // Addresses survive reset_all(); values are zeroed but stay listed.
  EXPECT_EQ(&registry.counter("test.registry_stable"), &a);
  EXPECT_EQ(registry.counter_values().at("test.registry_stable"), 0u);
}

TEST(Obs, SeriesPreservesAppendOrder) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset_all();
  registry.append_series("test.series", 3.0);
  registry.append_series("test.series", 1.0);
  registry.append_series("test.series", 2.0);
  EXPECT_EQ(registry.series_values().at("test.series"),
            (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(Obs, MacrosRespectCompileTimeSwitch) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset_all();
  QP_COUNTER_ADD("test.macro_counter", 2);
  QP_COUNTER_ADD("test.macro_counter", 3);
  const auto counters = registry.counter_values();
  if (obs::compiled_in()) {
    EXPECT_EQ(counters.at("test.macro_counter"), 5u);
  } else {
    // -DQPLACE_OBS=OFF: the macro must compile to nothing, registering no
    // instrument at all.
    EXPECT_EQ(counters.count("test.macro_counter"), 0u);
  }
}

TEST(Obs, ScopedTimerCountsCalls) {
  obs::ProfileCollector& profiler = obs::ProfileCollector::instance();
  profiler.clear();
  profiler.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    QP_SPAN("test.span");
  }
  profiler.set_enabled(false);
  const obs::ProfileNode root =
      profiler.fold(obs::Registry::instance().counter_names());
  profiler.clear();
  if (obs::compiled_in()) {
    ASSERT_EQ(root.children.count("test.span"), 1u);
    EXPECT_EQ(root.children.at("test.span").calls, 3u);
    EXPECT_GE(root.children.at("test.span").total_nanos, 0);
  } else {
    EXPECT_EQ(root.children.count("test.span"), 0u);
  }
}

TEST(Obs, TraceRecorderDisabledByDefault) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  ASSERT_FALSE(recorder.enabled());
  recorder.record("test.ignored", 0.0, 1.0);
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(Obs, TraceJsonIsWellFormed) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  recorder.record("test.phase_a", 1.0, 2.0);
  recorder.record("quote\"and\\slash", 3.0, 0.5);
  {
    QP_SPAN("test.span_via_macro");
  }
  recorder.set_enabled(false);

  const std::string json = recorder.to_chrome_json();
  EXPECT_TRUE(looks_like_json_object(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("test.phase_a"), std::string::npos);
  // Escaping: the quote and backslash must be escaped in the output.
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
  if (obs::compiled_in()) {
    EXPECT_EQ(recorder.event_count(), 3u);
    EXPECT_NE(json.find("test.span_via_macro"), std::string::npos);
  } else {
    EXPECT_EQ(recorder.event_count(), 2u);  // direct record() still works
  }
  EXPECT_EQ(recorder.dropped_count(), 0u);
  recorder.clear();
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(Histogram, BucketLayoutIsFixed) {
  // Bucket boundaries are a pure function of the layout constants.
  EXPECT_EQ(obs::LogHistogram::bucket_index(0.0), -1);
  EXPECT_EQ(obs::LogHistogram::bucket_index(-3.0), -1);
  EXPECT_EQ(obs::LogHistogram::bucket_index(
                std::ldexp(1.0, obs::LogHistogram::kMaxExponent)),
            obs::LogHistogram::kNumBuckets);
  const int bucket_of_one = obs::LogHistogram::bucket_index(1.0);
  EXPECT_EQ(bucket_of_one, -obs::LogHistogram::kMinExponent *
                               obs::LogHistogram::kBucketsPerOctave);
  EXPECT_LE(obs::LogHistogram::bucket_lower_bound(bucket_of_one), 1.0);
  EXPECT_GT(obs::LogHistogram::bucket_upper_bound(bucket_of_one), 1.0);
}

TEST(Histogram, QuantilesTrackExactSortedSampleQuantiles) {
  // The quantile contract: the reported value is the upper bound of the
  // bucket holding the ceil(q * count)-th smallest sample, so it is >= the
  // exact sample quantile and at most one relative bucket width above it.
  std::mt19937_64 rng(17);
  std::exponential_distribution<double> delay(0.25);
  obs::LogHistogram histogram;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double value = delay(rng) + 1e-3;
    samples.push_back(value);
    histogram.record(value);
  }
  std::sort(samples.begin(), samples.end());
  const double relative_width =
      std::pow(2.0, 1.0 / obs::LogHistogram::kBucketsPerOctave);  // ~1.0905
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[rank - 1];
    const double estimated = histogram.quantile(q);
    EXPECT_GE(estimated, exact * (1.0 - 1e-12)) << "q=" << q;
    EXPECT_LE(estimated, exact * relative_width * (1.0 + 1e-12)) << "q=" << q;
  }
  EXPECT_EQ(histogram.count(), samples.size());
  EXPECT_EQ(histogram.min(), samples.front());
  EXPECT_EQ(histogram.max(), samples.back());
  EXPECT_THROW(histogram.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(histogram.quantile(1.1), std::invalid_argument);
}

TEST(Histogram, QuantileEdgeCases) {
  obs::LogHistogram empty;
  // An empty histogram has no distribution: quantiles and mean are NaN (not
  // a fake 0 a caller could mistake for a measurement), while q validation
  // still throws first.
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
  EXPECT_TRUE(std::isnan(empty.mean()));
  EXPECT_THROW(empty.quantile(-0.1), std::invalid_argument);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);

  obs::LogHistogram h;
  h.record(0.0);   // underflow
  h.record(1e12);  // overflow (above 2^30)
  h.record(4.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
  // q small enough to land in the underflow bucket resolves to min().
  EXPECT_EQ(h.quantile(0.0), 0.0);
  // q = 1 lands in the overflow bucket and resolves to max().
  EXPECT_EQ(h.quantile(1.0), 1e12);
}

TEST(Histogram, MergeIsOrderIndependentAndMatchesSingleFeed) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> value(1e-8, 2e9);  // spans the range
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(value(rng));

  obs::LogHistogram all;
  for (double v : samples) all.record(v);

  // Four shards, merged in two different orders.
  std::vector<obs::LogHistogram> shards(4);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    shards[i % 4].record(samples[i]);
  }
  obs::LogHistogram forward;
  for (const auto& shard : shards) forward.merge(shard);
  obs::LogHistogram backward;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    backward.merge(*it);
  }

  EXPECT_EQ(forward.buckets(), all.buckets());
  EXPECT_EQ(backward.buckets(), all.buckets());
  EXPECT_EQ(forward.count(), all.count());
  EXPECT_EQ(forward.underflow(), all.underflow());
  EXPECT_EQ(forward.overflow(), all.overflow());
  EXPECT_EQ(forward.min(), all.min());
  EXPECT_EQ(forward.max(), all.max());
  EXPECT_EQ(forward.to_json(), backward.to_json());
}

TEST(Histogram, JsonIsWellFormed) {
  obs::LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const std::string json = h.to_json();
  EXPECT_TRUE(looks_like_json_object(json)) << json;
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(RunReport, JsonFollowsSchema) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset_all();
  QP_COUNTER_ADD("test.report_counter", 7);
  QP_SERIES_APPEND("test.report_series", 1.5);

  obs::RunReport report("unit-test");
  report.set_context("algorithm", "qpp");
  report.set_context("needs \"escaping\"", "back\\slash");
  obs::LogHistogram h;
  h.record(2.0);
  report.add_histogram("test.hist", h);
  report.add_nondeterministic_json("pool", "{\"threads\": 1}");

  const std::string json = report.to_json();
  EXPECT_TRUE(looks_like_json_object(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"qplace.run_report.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"command\": \"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(json.find("\"nondeterministic\""), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"pool\": {\"threads\": 1}"), std::string::npos);
  // The profile tree rides in both halves: counter attribution under
  // deterministic, calls and wall time under nondeterministic. The
  // collector is off here, so both are the empty root.
  const obs::json::Value doc = obs::json::parse(json);
  const obs::json::Value& det = *doc.find("deterministic");
  std::vector<std::string> keys;
  for (const auto& [key, value] : det.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"counters", "histograms",
                                            "profile", "series"}));
  ASSERT_NE(det.find("profile")->find("children"), nullptr);
  const obs::json::Value& wall = *doc.find("nondeterministic");
  ASSERT_NE(wall.find("profile"), nullptr);
  EXPECT_EQ(wall.find("profile")->get_number("calls", -1.0), 0.0);
  EXPECT_EQ(wall.find("timers"), nullptr);
  if (obs::compiled_in()) {
    EXPECT_NE(json.find("\"test.report_counter\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"test.report_series\""), std::string::npos);
  }
#if defined(__unix__) || defined(__APPLE__)
  // Process resource footprint rides in the nondeterministic section on
  // POSIX hosts (getrusage): peak RSS plus major/minor page faults.
  EXPECT_NE(json.find("\"resources\": {\"max_rss_kb\": "), std::string::npos);
  EXPECT_NE(json.find("\"page_faults_major\": "), std::string::npos);
  EXPECT_NE(json.find("\"page_faults_minor\": "), std::string::npos);
#endif
  // Equal data must serialize to equal bytes (sorted keys, no timestamps in
  // the deterministic section; the getrusage sample is frozen at the first
  // serialization).
  EXPECT_EQ(json, report.to_json());
}

TEST(Histogram, SingleBucketQuantilesStayInsideTheBucket) {
  // Every sample identical: exactly one populated bucket. All quantiles
  // must resolve within that bucket's bounds, and the extremes pin to the
  // tracked exact min/max.
  obs::LogHistogram h;
  for (int i = 0; i < 25; ++i) h.record(3.0);
  EXPECT_EQ(h.quantile(0.0), 3.0);  // min()
  EXPECT_EQ(h.quantile(1.0), 3.0);  // max()
  // Interior quantiles report the bucket's upper bound, which is within
  // one relative bucket width (2^(1/8) - 1 < 9.1%) of the true value.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 3.0);
  EXPECT_LE(p50, 3.0 * std::pow(2.0, 1.0 / 8.0));
}

TEST(Histogram, MergeIsAssociative) {
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> value(0.5, 512.0);
  obs::LogHistogram a, b, c;
  for (int i = 0; i < 300; ++i) a.record(value(rng));
  for (int i = 0; i < 200; ++i) b.record(value(rng));
  for (int i = 0; i < 100; ++i) c.record(value(rng));

  obs::LogHistogram ab_then_c = a;  // (a + b) + c
  ab_then_c.merge(b);
  ab_then_c.merge(c);
  obs::LogHistogram bc = b;  // a + (b + c)
  bc.merge(c);
  obs::LogHistogram a_then_bc = a;
  a_then_bc.merge(bc);

  EXPECT_EQ(ab_then_c.buckets(), a_then_bc.buckets());
  EXPECT_EQ(ab_then_c.count(), a_then_bc.count());
  EXPECT_EQ(ab_then_c.min(), a_then_bc.min());
  EXPECT_EQ(ab_then_c.max(), a_then_bc.max());
  EXPECT_EQ(ab_then_c.to_json(), a_then_bc.to_json());
}

TEST(Histogram, MergeWithEmptyIsIdentityBothWays) {
  obs::LogHistogram h;
  for (int i = 1; i <= 40; ++i) h.record(static_cast<double>(i));
  const std::string before = h.to_json();

  obs::LogHistogram empty;
  h.merge(empty);  // right identity
  EXPECT_EQ(h.to_json(), before);

  obs::LogHistogram other;  // left identity: empty absorbs h into a copy
  other.merge(h);
  EXPECT_EQ(other.to_json(), before);

  // Empty + empty stays empty -- and in particular keeps NaN quantiles
  // (min/max sentinels must not leak through the merge as fake samples).
  obs::LogHistogram still_empty;
  still_empty.merge(empty);
  EXPECT_EQ(still_empty.count(), 0u);
  EXPECT_TRUE(std::isnan(still_empty.quantile(0.5)));
}

TEST(Histogram, EmptyHistogramJsonRendersNullStatistics) {
  // docs/OBSERVABILITY.md: an empty histogram has measured nothing, so its
  // mean/p50/p90/p99 are JSON null -- a 0.0 would be indistinguishable from
  // a real measured zero, and `analyze --diff` treats null-vs-number as
  // schema drift rather than numeric drift.
  obs::LogHistogram empty;
  const std::string json = empty.to_json();
  EXPECT_TRUE(looks_like_json_object(json)) << json;
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": null"), std::string::npos) << json;

  obs::LogHistogram full;
  full.record(1.0);
  EXPECT_EQ(full.to_json().find("null"), std::string::npos);
}

}  // namespace
}  // namespace qp
