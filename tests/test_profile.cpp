/// Work-attribution profiler suite (obs/profile.hpp and the profile tree of
/// the run report): span-path folding edge cases (duplicate siblings, long
/// runs, empty traces), counter self-attribution, ambient frames, the
/// metamorphic byte-identity of the deterministic subtree across thread
/// counts, the tree summing to the report's flat counters, the per-node
/// diff the CLI gates on, and the counter-drift comparator table shared by
/// the flat counters and the profile nodes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "check/certificate.hpp"
#include "core/multi_strategy.hpp"
#include "core/placement_report.hpp"
#include "core/qpp_solver.hpp"
#include "core/specialized.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/run_report.hpp"
#include "quorum/constructions.hpp"
#include "sim/simulator.hpp"

namespace qp {
namespace {

obs::ProfileCollector& collector() {
  return obs::ProfileCollector::instance();
}

/// RAII profiling window: the collector is process-global, so every test
/// starts from a clean slate and leaves recording off for the next one.
struct ProfileSession {
  ProfileSession() {
    collector().clear();
    collector().set_enabled(true);
  }
  ~ProfileSession() {
    collector().set_enabled(false);
    collector().clear();
  }
};

std::vector<std::string> counter_names() {
  return obs::Registry::instance().counter_names();
}

TEST(Profile, EmptyTraceYieldsEmptyButValidProfile) {
  ProfileSession session;
  const obs::ProfileNode root = collector().fold(counter_names());
  EXPECT_TRUE(root.counters.empty());
  EXPECT_TRUE(root.children.empty());
  EXPECT_EQ(root.calls, 0u);

  // Both halves still parse with every key present...
  const obs::json::Value counters = obs::json::parse(root.counters_json());
  ASSERT_NE(counters.find("counters"), nullptr);
  ASSERT_NE(counters.find("children"), nullptr);
  const obs::json::Value wall = obs::json::parse(root.wall_json());
  EXPECT_EQ(wall.get_number("calls", -1.0), 0.0);
  EXPECT_EQ(wall.get_number("total_ms", -1.0), 0.0);
  // ...and the folded-stack rendering is empty, not malformed.
  EXPECT_EQ(root.folded(), "");
}

TEST(Profile, DuplicateSiblingSpansMergeIntoOneNode) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();
  c.on_span_enter("test.profile.parent");
  c.on_span_enter("test.profile.leaf");
  c.on_span_exit("test.profile.leaf", 1000);
  c.on_span_enter("test.profile.leaf");
  c.on_span_exit("test.profile.leaf", 2000);
  c.on_span_exit("test.profile.parent", 5000);

  const obs::ProfileNode root = c.fold(counter_names());
  ASSERT_EQ(root.children.size(), 1u);
  const obs::ProfileNode& parent = root.children.at("test.profile.parent");
  EXPECT_EQ(parent.calls, 1u);
  EXPECT_EQ(parent.total_nanos, 5000);
  // Both sibling activations folded into one node, durations summed, and
  // the parent's self time excludes them.
  ASSERT_EQ(parent.children.size(), 1u);
  const obs::ProfileNode& leaf = parent.children.at("test.profile.leaf");
  EXPECT_EQ(leaf.calls, 2u);
  EXPECT_EQ(leaf.total_nanos, 3000);
  EXPECT_EQ(parent.self_nanos(), 2000);
  // Folded stacks use ';'-joined paths with self-time in microseconds.
  const std::string folded = root.folded();
  EXPECT_NE(folded.find("test.profile.parent;test.profile.leaf 3\n"),
            std::string::npos)
      << folded;
}

TEST(Profile, CountersAttributeToInnermostOpenSpan) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();
  obs::Registry& registry = obs::Registry::instance();

  registry.counter("test.profile.glue").add(7);  // no span open -> root
  c.on_span_enter("test.profile.outer");
  registry.counter("test.profile.work").add(3);
  c.on_span_enter("test.profile.inner");
  registry.counter("test.profile.work").add(11);
  c.on_span_exit("test.profile.inner", 100);
  registry.counter("test.profile.work").add(2);
  c.on_span_exit("test.profile.outer", 400);

  const obs::ProfileNode root = c.fold(counter_names());
  EXPECT_EQ(root.counters.at("test.profile.glue"), 7u);
  const obs::ProfileNode& outer = root.children.at("test.profile.outer");
  // Self attribution: the outer span keeps only the adds made while it was
  // innermost (3 + 2); the nested span's 11 never leaks upward.
  EXPECT_EQ(outer.counters.at("test.profile.work"), 5u);
  EXPECT_EQ(outer.children.at("test.profile.inner")
                .counters.at("test.profile.work"),
            11u);
}

TEST(Profile, AmbientScopeAnchorsAttributionWithoutCalls) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();

  c.on_span_enter("test.profile.submit");
  const std::vector<const char*> path = c.current_path();
  ASSERT_EQ(path.size(), 1u);
  c.on_span_exit("test.profile.submit", 1000);

  // A worker-thread chunk re-installs the submission path as an ambient
  // frame: adds land on the absolute path, nested spans hang under it, and
  // call counts are untouched.
  {
    obs::ProfileAmbientScope scope(&path);
    obs::Registry::instance().counter("test.profile.chunk_work").add(9);
    c.on_span_enter("test.profile.nested");
    const std::vector<const char*> nested = c.current_path();
    ASSERT_EQ(nested.size(), 2u);
    EXPECT_STREQ(nested[0], "test.profile.submit");
    EXPECT_STREQ(nested[1], "test.profile.nested");
    c.on_span_exit("test.profile.nested", 50);
  }
  // A null path makes the scope a no-op (the profiling-off case).
  { obs::ProfileAmbientScope noop(nullptr); }

  const obs::ProfileNode root = c.fold(counter_names());
  const obs::ProfileNode& submit = root.children.at("test.profile.submit");
  EXPECT_EQ(submit.calls, 1u);  // the ambient frame bumped no calls
  EXPECT_EQ(submit.counters.at("test.profile.chunk_work"), 9u);
  EXPECT_EQ(submit.children.at("test.profile.nested").calls, 1u);
}

TEST(Profile, LongRunsFoldEverySpanWithoutTruncation) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();
  obs::Counter& work = obs::Registry::instance().counter("test.profile.work");

  // 2 * 40 000 + 2 span events: more than any fixed per-thread event
  // buffer of 2^16 would hold. Folding as spans close keeps all of them.
  const std::uint64_t pairs = 40000;
  c.on_span_enter("test.profile.long_parent");
  for (std::uint64_t i = 0; i < pairs; ++i) {
    c.on_span_enter("test.profile.long_child");
    work.add(1);
    c.on_span_exit("test.profile.long_child", 10);
  }
  c.on_span_exit("test.profile.long_parent", 1000);

  const obs::ProfileNode root = c.fold(counter_names());
  EXPECT_EQ(root.children.count("<truncated>"), 0u);
  ASSERT_EQ(root.children.size(), 1u);
  const obs::ProfileNode& parent = root.children.at("test.profile.long_parent");
  EXPECT_EQ(parent.calls, 1u);
  EXPECT_TRUE(parent.counters.empty());
  ASSERT_EQ(parent.children.size(), 1u);
  const obs::ProfileNode& child = parent.children.at("test.profile.long_child");
  EXPECT_EQ(child.calls, pairs);
  EXPECT_EQ(child.total_nanos, static_cast<std::int64_t>(10 * pairs));
  EXPECT_EQ(child.counters.at("test.profile.work"), pairs);
}

TEST(Profile, DeterministicSubtreeByteIdenticalAcrossThreadCounts) {
  const graph::Metric metric = graph::Metric::from_graph(graph::grid_mesh(4));
  const std::vector<double> capacities(16, 1.0);
  const quorum::QuorumSystem grid = quorum::grid(2);
  const core::QppInstance grid_instance(
      metric, capacities, grid, quorum::AccessStrategy::uniform(grid));
  const quorum::QuorumSystem majority = quorum::majority(5, 3);
  const core::QppInstance majority_instance(
      metric, capacities, majority, quorum::AccessStrategy::uniform(majority));

  // Sec 6 inputs: client v favours quorum v mod 4, with uneven rates.
  core::PerClientStrategies strategies;
  std::vector<double> weights;
  for (int v = 0; v < 16; ++v) {
    std::vector<double> p(4, 1.0 / 6.0);
    p[static_cast<std::size_t>(v % 4)] = 3.0 / 6.0;
    strategies.emplace_back(grid, std::move(p));
    weights.push_back(1.0 + v % 3);
  }

  core::QppSolveOptions options;
  options.alpha = 2.0;
  // The relay sweep on the pool, then the Thm 1.3 layouts and the Sec 6
  // solver, whose per-candidate evaluations run under ambient frames.
  const std::vector<std::pair<std::string, std::function<void()>>> runs = {
      {"qpp", [&] { (void)core::solve_qpp(grid_instance, options); }},
      {"grid", [&] { (void)core::solve_qpp_grid(grid_instance, 2); }},
      {"majority",
       [&] { (void)core::solve_qpp_majority(majority_instance, 3); }},
      {"multi",
       [&] {
         (void)core::solve_qpp_multi(metric, capacities, grid, strategies,
                                     weights, options);
       }},
  };

  const auto profiled = [](int threads, const std::function<void()>& run) {
    obs::Registry::instance().reset_all();
    ProfileSession session;
    exec::set_num_threads(threads);
    run();
    exec::set_num_threads(0);
    return collector().fold(counter_names()).counters_json();
  };

  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    const std::string at_one = profiled(1, run);
    const std::string at_eight = profiled(8, run);
    EXPECT_NE(at_one.find("\"qpp.relay_sweep\""), std::string::npos);
    // The docs/PARALLEL.md contract extended to attribution: per-span-path
    // counter sums are byte-identical regardless of how chunks were spread
    // across worker threads. Wall times may differ.
    EXPECT_EQ(at_one, at_eight);
  }
}

/// Sums every node's counters of a parsed profile tree into \p out.
void sum_tree(const obs::json::Value& node,
              std::map<std::string, double>& out) {
  for (const auto& [name, value] : node.find("counters")->object) {
    out[name] += value.number;
  }
  for (const auto& [name, child] : node.find("children")->object) {
    sum_tree(child, out);
  }
}

TEST(Profile, TreeSumsToRunReportCounters) {
  // The pipelines behind `qplace solve`, `check` and `simulate`, from the
  // metric build on. With the collector on for the whole run, every
  // increment lands on exactly one node (the root takes those made with no
  // span open), so the report's tree sums to its flat counters.
  const graph::Graph topology = graph::grid_mesh(4);
  const quorum::QuorumSystem grid = quorum::grid(2);
  const auto instance = [&] {
    return core::QppInstance(graph::Metric::from_graph(topology),
                             std::vector<double>(16, 1.0), grid,
                             quorum::AccessStrategy::uniform(grid));
  };
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const std::vector<std::pair<std::string, std::function<void()>>> runs = {
      {"solve",
       [&] {
         // As `qplace solve` prints it: the report's evaluations run with
         // no span open, so they exercise the root node.
         const core::QppInstance solved = instance();
         const auto result = core::solve_qpp(solved, options);
         ASSERT_TRUE(result.has_value());
         (void)core::evaluate_placement(solved, result->placement);
       }},
      {"check",
       [&] {
         const core::QppInstance checked = instance();
         const auto result = core::solve_qpp(checked, options);
         ASSERT_TRUE(result.has_value());
         (void)check::check_certificate(checked, *result);
       }},
      {"simulate",
       [&] {
         const core::QppInstance simulated = instance();
         const auto result = core::solve_qpp(simulated, options);
         ASSERT_TRUE(result.has_value());
         sim::SimulationConfig config;
         config.duration = 50.0;
         (void)sim::simulate(simulated, result->placement, config);
       }},
  };

  for (const auto& [name, run] : runs) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(name + " at --threads " + std::to_string(threads));
      obs::Registry::instance().reset_all();
      std::string json;
      {
        ProfileSession session;
        exec::set_num_threads(threads);
        run();
        exec::set_num_threads(0);
        collector().set_enabled(false);
        json = obs::RunReport(name).to_json();
      }
      const obs::json::Value report = obs::json::parse(json);
      const obs::json::Value& det = *report.find("deterministic");
      std::map<std::string, double> sums;
      sum_tree(*det.find("profile"), sums);
      const obs::json::Value& counters = *det.find("counters");
      if (obs::compiled_in()) {
        EXPECT_FALSE(sums.empty());
      }
      for (const auto& [counter, total] : counters.object) {
        EXPECT_EQ(sums[counter], total.number) << counter;
      }
      // No node credits a counter the registry does not total.
      EXPECT_EQ(sums.size(), counters.object.size());
    }
  }
}

// ---------------------------------------------------------------- diffing

/// A small but realistic run report whose profile tree is rendered through
/// the real node emitters, so the diff tests also round-trip
/// counters_json / wall_json -> json::parse.
std::string report_doc(const std::string& digest, std::uint64_t candidates,
                       std::uint64_t chunks, double sweep_ms,
                       bool extra_node = false, int extra_feasible = -1) {
  obs::ProfileNode root;
  obs::ProfileNode& sweep = root.children["qpp.relay_sweep"];
  sweep.calls = 1;
  sweep.total_nanos = static_cast<std::int64_t>(sweep_ms * 1e6);
  sweep.counters["qpp.relay_candidates"] = candidates;
  if (extra_feasible >= 0) {
    sweep.counters["qpp.relay_feasible"] =
        static_cast<std::uint64_t>(extra_feasible);
  }
  root.counters["exec.chunks"] = chunks;
  if (extra_node) {
    obs::ProfileNode& lp = root.children["lp.solve"];
    lp.calls = 2;
    lp.counters["lp.pivots"] = 64;
  }
  root.total_nanos = sweep.total_nanos;
  const std::string context =
      digest.empty() ? "{}" : R"({"instance_digest": ")" + digest + "\"}";
  return R"({"schema": "qplace.run_report.v2", "context": )" + context +
         R"(, "deterministic": {"counters": {}, "profile": )" +
         root.counters_json() + R"(}, "nondeterministic": {"profile": )" +
         root.wall_json() + "}}";
}

obs::ReportDiff diff_docs(const std::string& base, const std::string& cand) {
  return obs::diff_run_reports(obs::json::parse(base), obs::json::parse(cand));
}

TEST(ProfileDiff, IdenticalProfilesShowZeroDrift) {
  const std::string doc = report_doc("abc", 100, 4, 10.0);
  const obs::ReportDiff diff = diff_docs(doc, doc);
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  EXPECT_TRUE(diff.structure.empty());
  EXPECT_EQ(diff.max_deterministic_drift(), 0.0);
  EXPECT_TRUE(diff.deterministic_ok(0.0));
  // Both nodes are compared, and their wall times are reported only; on
  // identical documents they agree.
  EXPECT_EQ(diff.walls.size(), 2u);
  for (const obs::ProfileWallDiff& wall : diff.walls) {
    EXPECT_EQ(wall.total_ms_base, wall.total_ms_cand) << wall.path;
  }
}

TEST(ProfileDiff, CounterValueDriftIsDetectedAndLocated) {
  const obs::ReportDiff diff = diff_docs(report_doc("abc", 100, 4, 10.0),
                                         report_doc("abc", 120, 4, 10.0));
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  EXPECT_NEAR(diff.max_deterministic_drift(), 0.2, 1e-12);
  EXPECT_FALSE(diff.deterministic_ok(0.1));
  EXPECT_TRUE(diff.deterministic_ok(0.25));
  // The drifted counter is named at its node path; the root's counters are
  // located at "(root)", never at the flat totals' "".
  bool located = false;
  for (const obs::CounterDiff& counter : diff.counters) {
    if (counter.name == "exec.chunks") {
      EXPECT_EQ(counter.path, "(root)");
    }
    if (counter.path == "qpp.relay_sweep" &&
        counter.name == "qpp.relay_candidates") {
      located = true;
      EXPECT_EQ(counter.base, 100u);
      EXPECT_EQ(counter.cand, 120u);
    }
  }
  EXPECT_TRUE(located);
}

TEST(ProfileDiff, OneSidedPathGatesAsStructuralDrift) {
  const obs::ReportDiff diff =
      diff_docs(report_doc("abc", 100, 4, 10.0),
                report_doc("abc", 100, 4, 10.0, /*extra_node=*/true));
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  ASSERT_EQ(diff.structure.size(), 1u);
  EXPECT_EQ(diff.structure[0].path, "lp.solve");
  EXPECT_FALSE(diff.structure[0].in_base);
  EXPECT_TRUE(diff.structure[0].in_cand);
  EXPECT_TRUE(std::isinf(diff.max_deterministic_drift()));
  EXPECT_FALSE(diff.deterministic_ok(1e9));
}

TEST(ProfileDiff, OneSidedCounterGatesOnlyWhenNonzero) {
  // A counter present on one side with value 0 is indistinguishable from an
  // absent one (work never happened) -- drift 0, not infinity.
  const obs::ReportDiff zero =
      diff_docs(report_doc("abc", 100, 4, 10.0),
                report_doc("abc", 100, 4, 10.0, false, /*extra_feasible=*/0));
  EXPECT_EQ(zero.max_deterministic_drift(), 0.0);
  // Nonzero one-sided counter: infinite drift, always gated.
  const obs::ReportDiff nonzero =
      diff_docs(report_doc("abc", 100, 4, 10.0),
                report_doc("abc", 100, 4, 10.0, false, /*extra_feasible=*/5));
  EXPECT_TRUE(std::isinf(nonzero.max_deterministic_drift()));
}

TEST(ProfileDiff, DisagreeingInstanceDigestsAreRefused) {
  const obs::ReportDiff refused = diff_docs(report_doc("abc", 100, 4, 10.0),
                                            report_doc("xyz", 100, 4, 10.0));
  EXPECT_FALSE(refused.error.empty());
  EXPECT_FALSE(refused.deterministic_ok(1e9));
  // A missing digest on either side is tolerated (trimmed fixtures).
  const obs::ReportDiff tolerated = diff_docs(
      report_doc("", 100, 4, 10.0), report_doc("abc", 100, 4, 10.0));
  EXPECT_TRUE(tolerated.error.empty()) << tolerated.error;
}

TEST(ProfileDiff, WrongSchemaIsRefused) {
  // A v1 run report and a v1 profile document: neither carries the v2
  // tree in the place the gate reads it, so both are refused outright.
  for (const char* foreign :
       {R"({"schema": "qplace.run_report.v1", "deterministic": )"
        R"({"counters": {"qpp.relay_candidates": 100}}})",
        R"({"schema": "qplace.profile.v1", "deterministic": )"
        R"({"root": {"counters": {}, "children": {}}}})"}) {
    SCOPED_TRACE(foreign);
    const obs::ReportDiff diff =
        diff_docs(foreign, report_doc("abc", 100, 4, 10.0));
    EXPECT_NE(diff.error.find("qplace.run_report.v2"), std::string::npos)
        << diff.error;
    EXPECT_FALSE(diff.deterministic_ok(1e9));
  }
}

TEST(ProfileDiff, WallDriftIsReportedButSeparateFromDeterministic) {
  const obs::ReportDiff diff = diff_docs(report_doc("abc", 100, 4, 10.0),
                                         report_doc("abc", 100, 4, 15.0));
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  // Same work, slower wall clock: the deterministic gate passes at
  // tolerance 0, while the wall times are reported side by side.
  EXPECT_TRUE(diff.deterministic_ok(0.0));
  bool reported = false;
  for (const obs::ProfileWallDiff& wall : diff.walls) {
    if (wall.path != "qpp.relay_sweep") continue;
    reported = true;
    EXPECT_NEAR(wall.total_ms_base, 10.0, 1e-9);
    EXPECT_NEAR(wall.total_ms_cand, 15.0, 1e-9);
  }
  EXPECT_TRUE(reported);
}

// ------------------------------------------------------- comparator table

/// One counter-drift case, run against both places a counter sits in a run
/// report (the flat totals and a profile node): the two sides' counter
/// objects and instance digests ("" = none), and either the expected rows
/// and max deterministic drift or a fragment of the refusal message.
struct ComparatorCase {
  const char* name;
  const char* base_counters;
  const char* cand_counters;
  const char* base_digest;
  const char* cand_digest;
  std::size_t rows;     ///< expected CounterDiff rows when comparable
  double drift;         ///< expected drift when comparable
  const char* refusal;  ///< expected error fragment; nullptr = comparable
};

constexpr double kInf = std::numeric_limits<double>::infinity();

const ComparatorCase kComparatorCases[] = {
    {"identical documents", R"({"lp.pivots": 768, "exec.chunks": 30})",
     R"({"lp.pivots": 768, "exec.chunks": 30})", "abc", "abc", 2, 0.0,
     nullptr},
    {"value drift", R"({"lp.pivots": 100})", R"({"lp.pivots": 120})", "abc",
     "abc", 1, 0.2, nullptr},
    // A one-sided zero is indistinguishable from an absent counter (the
    // work never happened); a one-sided non-zero is an appearing
    // instrument and always gates.
    {"one-sided zero", R"({"lp.pivots": 100})",
     R"({"lp.pivots": 100, "lp.solves": 0})", "abc", "abc", 2, 0.0, nullptr},
    {"one-sided nonzero", R"({"lp.pivots": 100})",
     R"({"lp.pivots": 100, "lp.solves": 5})", "abc", "abc", 2, kInf, nullptr},
    {"digest on one side only", R"({"lp.pivots": 100})",
     R"({"lp.pivots": 100})", "", "abc", 1, 0.0, nullptr},
    {"digest refusal", R"({"lp.pivots": 100})", R"({"lp.pivots": 100})",
     "abc", "xyz", 0, 0.0, "instance digests differ"},
    // Malformed values are refused, never cast: -5 used to read as
    // 2^64 - 5.
    {"negative counter", R"({"lp.pivots": 100})", R"({"lp.pivots": -5})",
     "abc", "abc", 0, 0.0, "counter 'lp.pivots'"},
    {"fractional counter", R"({"lp.pivots": 100.5})", R"({"lp.pivots": 100})",
     "abc", "abc", 0, 0.0, "counter 'lp.pivots'"},
    {"counter above 2^53", R"({"lp.pivots": 100})",
     R"({"lp.pivots": 1e19})", "abc", "abc", 0, 0.0, "counter 'lp.pivots'"},
    {"non-numeric counter", R"({"lp.pivots": 100})",
     R"({"lp.pivots": "100"})", "abc", "abc", 0, 0.0, "counter 'lp.pivots'"},
};

std::string context_json(const char* digest) {
  return *digest == '\0'
             ? std::string("{}")
             : std::string(R"({"instance_digest": ")") + digest + "\"}";
}

obs::json::Value case_run_report(const char* counters, const char* digest) {
  return obs::json::parse(
      R"({"schema": "qplace.run_report.v2", "context": )" +
      context_json(digest) + R"(, "deterministic": {"counters": )" +
      counters + "}}");
}

/// The same counters attributed to one span below the profile root.
obs::json::Value case_profile(const char* counters, const char* digest) {
  return obs::json::parse(
      R"({"schema": "qplace.run_report.v2", "context": )" +
      context_json(digest) +
      R"(, "deterministic": {"counters": {}, "profile": {"counters": {}, )"
      R"("children": {"qpp.relay_sweep": {"counters": )" +
      counters + "}}}}}");
}

void expect_case(const ComparatorCase& c, const obs::ReportDiff& diff) {
  SCOPED_TRACE(c.name);
  if (c.refusal != nullptr) {
    EXPECT_NE(diff.error.find(c.refusal), std::string::npos) << diff.error;
    EXPECT_TRUE(diff.counters.empty());
    EXPECT_FALSE(diff.deterministic_ok(1e9));
    return;
  }
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  EXPECT_EQ(diff.counters.size(), c.rows);
  if (std::isinf(c.drift)) {
    EXPECT_TRUE(std::isinf(diff.max_deterministic_drift()));
    EXPECT_FALSE(diff.deterministic_ok(1e9));
  } else {
    EXPECT_NEAR(diff.max_deterministic_drift(), c.drift, 1e-12);
    EXPECT_TRUE(diff.deterministic_ok(c.drift));
  }
}

TEST(CounterComparator, TableHoldsForRunReports) {
  for (const ComparatorCase& c : kComparatorCases) {
    expect_case(c, obs::diff_run_reports(
                       case_run_report(c.base_counters, c.base_digest),
                       case_run_report(c.cand_counters, c.cand_digest)));
  }
}

TEST(CounterComparator, TableHoldsForProfiles) {
  for (const ComparatorCase& c : kComparatorCases) {
    const obs::ReportDiff diff =
        obs::diff_run_reports(case_profile(c.base_counters, c.base_digest),
                              case_profile(c.cand_counters, c.cand_digest));
    expect_case(c, diff);
    // Every comparable row is located at the span it was attributed to.
    for (const obs::CounterDiff& counter : diff.counters) {
      EXPECT_EQ(counter.path, "qpp.relay_sweep") << c.name;
    }
  }
}

}  // namespace
}  // namespace qp
