// Tests for the contract layer (src/check/): validators' accept and reject
// paths, certified-bounds checking for every solver family, and the
// QP_REQUIRE / QP_INVARIANT macros themselves (fatal when contracts are
// compiled in, fully unevaluated when compiled out).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/certificate.hpp"
#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/majority_layout.hpp"
#include "core/qpp_solver.hpp"
#include "core/ssqpp_lp.hpp"
#include "core/ssqpp_solver.hpp"
#include "core/total_delay.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"

namespace qp::check {
namespace {

core::SsqppInstance make_ssqpp(const graph::Graph& g,
                               quorum::QuorumSystem system, double cap,
                               int source) {
  graph::Metric metric = graph::Metric::from_graph(g);
  std::vector<double> capacities(
      static_cast<std::size_t>(metric.num_points()), cap);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  return core::SsqppInstance(std::move(metric), std::move(capacities),
                             std::move(system), std::move(strategy), source);
}

core::QppInstance make_qpp(const graph::Graph& g, quorum::QuorumSystem system,
                           double cap) {
  graph::Metric metric = graph::Metric::from_graph(g);
  std::vector<double> capacities(
      static_cast<std::size_t>(metric.num_points()), cap);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  return core::QppInstance(std::move(metric), std::move(capacities),
                           std::move(system), std::move(strategy));
}

bool has_issue(const ValidationReport& report, const std::string& code) {
  return std::any_of(
      report.issues.begin(), report.issues.end(),
      [&](const ValidationIssue& issue) { return issue.code == code; });
}

// ---------------------------------------------------------------- metric

TEST(ValidateMetric, AcceptsShortestPathMetric) {
  const graph::Metric metric = graph::Metric::from_graph(graph::path_graph(6));
  const ValidationReport report = validate_metric(metric);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateMetric, FlagsTriangleViolation) {
  // Symmetric, zero diagonal, non-negative -- the constructor accepts it --
  // but d(0,2) = 10 > d(0,1) + d(1,2) = 2.
  const graph::Metric metric(3, {0.0, 1.0, 10.0,  //
                                 1.0, 0.0, 1.0,   //
                                 10.0, 1.0, 0.0});
  const ValidationReport report = validate_metric(metric);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "metric/triangle")) << report.to_string();
}

TEST(ValidateMetric, SamplingCatchesViolationInLargeMetric) {
  // Above exhaustive_triangle_limit the validator samples triples; a
  // violation on every triple through point 0 is found immediately.
  const int n = 12;
  std::vector<double> d(static_cast<std::size_t>(n) * n, 1.0);
  for (int i = 0; i < n; ++i) d[static_cast<std::size_t>(i) * n + i] = 0.0;
  d[1] = d[static_cast<std::size_t>(n)] = 50.0;  // d(0,1) = d(1,0) = 50
  const graph::Metric metric(n, std::move(d));
  MetricCheckOptions options;
  options.exhaustive_triangle_limit = 4;  // force the sampled path
  const ValidationReport report = validate_metric(metric, options);
  EXPECT_TRUE(has_issue(report, "metric/triangle")) << report.to_string();
}

TEST(ValidateMetric, ConstructorAlreadyRejectsNonMetricMatrices) {
  // Asymmetry / negative entries never reach the validator: the Metric
  // constructor is the first line of defense for those.
  EXPECT_THROW(graph::Metric(2, {0.0, 1.0, 2.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(graph::Metric(2, {0.0, -1.0, -1.0, 0.0}),
               std::invalid_argument);
}

// -------------------------------------------------------------- strategy

TEST(ValidateStrategy, AcceptsUniform) {
  const quorum::QuorumSystem system = quorum::grid(2);
  const std::vector<double> uniform(
      static_cast<std::size_t>(system.num_quorums()),
      1.0 / system.num_quorums());
  EXPECT_TRUE(validate_strategy(system, uniform).ok());
}

TEST(ValidateStrategy, FlagsMalformedRawData) {
  const quorum::QuorumSystem system = quorum::grid(2);  // 4 quorums
  EXPECT_TRUE(has_issue(validate_strategy(system, {0.5, 0.5}),
                        "strategy/size-mismatch"));
  EXPECT_TRUE(has_issue(validate_strategy(system, {0.5, 0.5, 0.5, -0.5}),
                        "strategy/negative"));
  EXPECT_TRUE(has_issue(validate_strategy(system, {0.5, 0.5, 0.5, 0.5}),
                        "strategy/not-normalized"));
}

// -------------------------------------------------------------- instance

TEST(ValidateInstance, AcceptsWellFormedInstances) {
  const core::QppInstance qpp = make_qpp(graph::path_graph(5),
                                         quorum::grid(2), 1.0);
  EXPECT_TRUE(validate_instance(qpp).ok());
  const core::SsqppInstance ssqpp =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 2);
  EXPECT_TRUE(validate_instance(ssqpp).ok());
}

// ------------------------------------------------------------- placement

TEST(ValidatePlacement, AcceptsSolverOutputWithinAlphaPlusOne) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());
  const ValidationReport report =
      validate_placement(instance, result->placement, {3.0, 1e-6});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidatePlacement, FlagsMalformedPlacements) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  EXPECT_TRUE(has_issue(validate_placement(instance, {0, 1}),
                        "placement/size"));
  EXPECT_TRUE(has_issue(validate_placement(instance, {0, 1, 2, 99}),
                        "placement/out-of-range"));
  // All four grid elements (load 3/4 each) on one unit-capacity node.
  EXPECT_TRUE(has_issue(validate_placement(instance, {0, 0, 0, 0}),
                        "placement/over-capacity"));
}

// -------------------------------------------------------------------- LP

TEST(ValidateLpSolution, AcceptsRawOptimum) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const core::FractionalSsqpp lp = core::solve_ssqpp_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const ValidationReport report = validate_lp_solution(instance, lp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateLpSolution, AcceptsAlphaFilteredSolutionAtScaleAlpha) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const core::FractionalSsqpp filtered =
      core::filter_fractional(core::solve_ssqpp_lp(instance), 2.0);
  LpCheckOptions options;
  options.load_scale = 2.0;       // Sec 3.3.1: filtered mass uses alpha * cap
  options.check_objective = false;  // recorded objective is the pre-filter Z*
  const ValidationReport report =
      validate_lp_solution(instance, filtered, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateLpSolution, FlagsTamperedSolutions) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const core::FractionalSsqpp lp = core::solve_ssqpp_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);

  core::FractionalSsqpp zeroed_column = lp;
  for (int t = 0; t < zeroed_column.num_nodes; ++t) {
    zeroed_column.x_tu[static_cast<std::size_t>(t) *
                       static_cast<std::size_t>(zeroed_column.universe_size)] =
        0.0;
  }
  EXPECT_TRUE(has_issue(validate_lp_solution(instance, zeroed_column),
                        "lp/element-mass"));

  core::FractionalSsqpp wrong_objective = lp;
  wrong_objective.objective += 1.0;
  EXPECT_TRUE(has_issue(validate_lp_solution(instance, wrong_objective),
                        "lp/objective-mismatch"));

  // An unsolved / infeasible struct is not a certificate of anything.
  EXPECT_TRUE(has_issue(validate_lp_solution(instance, core::FractionalSsqpp{}),
                        "lp/not-optimal"));
}

// ---------------------------------------------------------- certificates

TEST(Certificate, SsqppResultIsCertified) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  EXPECT_GT(cert.opt_lower_bound, 0.0);
}

TEST(Certificate, SsqppRejectsTamperedNumbers) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());

  core::SsqppResult tampered = *result;
  tampered.delay += 0.5;  // reported delay no longer matches the placement
  EXPECT_FALSE(check_certificate(instance, tampered).ok());

  core::SsqppResult wrong_lp = *result;
  wrong_lp.lp_objective *= 0.5;  // claims a lower bound the LP does not give
  EXPECT_FALSE(check_certificate(instance, wrong_lp).ok());
}

TEST(Certificate, SsqppRejectsInvalidPlacement) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());
  core::SsqppResult tampered = *result;
  tampered.placement[0] = -1;
  const Certificate cert = check_certificate(instance, tampered);
  EXPECT_FALSE(cert.ok());
  ASSERT_EQ(cert.checks.size(), 1u);  // stops at placement/valid
  EXPECT_EQ(cert.checks[0].name, "placement/valid");
}

TEST(Certificate, QppResultIsCertifiedWithOptLowerBound) {
  const core::QppInstance instance =
      make_qpp(graph::path_graph(4), quorum::grid(2), 1.0);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  // Thm 1.2: L / 5 certifies the capacity-respecting OPT from below and the
  // achieved average is within 5 beta = 10 of it for alpha = 2. (The ratio
  // can dip below 1: the rounded placement may use up to (alpha+1) cap.)
  EXPECT_GT(cert.opt_lower_bound, 0.0);
  EXPECT_LE(cert.certified_ratio, 10.0 + 1e-6);
}

TEST(Certificate, QppRejectsTamperedAverageDelay) {
  const core::QppInstance instance =
      make_qpp(graph::path_graph(4), quorum::grid(2), 1.0);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  core::QppResult tampered = *result;
  tampered.average_delay *= 0.1;  // too good to be true
  EXPECT_FALSE(check_certificate(instance, tampered).ok());
}

TEST(Certificate, IterationLimitedLowerBoundIsNotCertified) {
  // Thm 1.2's L is a min over every node's LP: a node LP that stops at the
  // iteration limit leaves L unproven, so it must not be skipped like an
  // infeasible one. At this limit the winning relay's LP solves but 9 of
  // the 10 node LPs do not; skipping them would certify L / 5 = 0.1498
  // where the true L / 5 is 0.0899.
  std::mt19937_64 rng(1);
  graph::Metric metric =
      graph::Metric::from_graph(graph::random_geometric(10, 0.5, rng).graph);
  std::vector<double> capacities;
  for (int i = 0; i < metric.num_points(); ++i) {
    capacities.push_back(0.7 + 0.35 * (i % 4));
  }
  quorum::QuorumSystem system = quorum::grid(3);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  const core::QppInstance instance(std::move(metric), std::move(capacities),
                                   std::move(system), std::move(strategy));
  core::QppSolveOptions solve_options;
  solve_options.simplex.max_iterations = 151;
  const auto result = core::solve_qpp(instance, solve_options);
  ASSERT_TRUE(result.has_value());
  CertificateOptions options;
  options.simplex.max_iterations = 151;
  const Certificate cert = check_certificate(instance, *result, options);
  EXPECT_FALSE(cert.ok()) << cert.to_string();
  const auto lower_bound = std::find_if(
      cert.checks.begin(), cert.checks.end(), [](const BoundCheck& check) {
        return check.name == "thm1.2/lower-bound-exists";
      });
  ASSERT_NE(lower_bound, cert.checks.end());
  EXPECT_FALSE(lower_bound->holds);
  EXPECT_EQ(cert.opt_lower_bound, 0.0);
  EXPECT_EQ(cert.certified_ratio, 0.0);
}

/// The instance of `qplace check --topology geometric --nodes <nodes>
/// --seed 1 --cap <cap>` for \p system.
core::QppInstance cli_geometric(quorum::QuorumSystem system, int nodes,
                                double cap) {
  std::mt19937_64 rng(1);
  graph::Metric metric = graph::Metric::from_graph(
      graph::random_geometric(nodes, 0.45, rng).graph);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  double max_load = 0.0;
  for (const double load : quorum::element_loads(system, strategy)) {
    max_load = std::max(max_load, load);
  }
  std::vector<double> capacities(static_cast<std::size_t>(nodes),
                                 cap * max_load);
  return core::QppInstance(std::move(metric), std::move(capacities),
                           std::move(system), std::move(strategy));
}

/// The certificate's lower bound called \p name (NaN if it has none).
double lower_bound(const Certificate& cert, const std::string& name) {
  for (const LowerBound& bound : cert.lower_bounds) {
    if (bound.name == name) return bound.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::vector<std::string> failed_checks(const Certificate& cert) {
  std::vector<std::string> names;
  for (const BoundCheck& check : cert.checks) {
    if (!check.holds) names.push_back(check.name);
  }
  return names;
}

/// lp.solves counted while \p call runs.
template <typename Call>
std::uint64_t lp_solves_of(Call&& call) {
  const auto count = [] {
    const auto counters = obs::Registry::instance().counter_values();
    const auto it = counters.find("lp.solves");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t before = count();
  call();
  return count() - before;
}

TEST(Certificate, DirectLowerBoundWinsOnGrid) {
  // Thm 1.2 certifies max(L / 5, sum_v w_v D(v)); here the direct bound is
  // 2.4x tighter and the certified ratio falls from 4.17 to 1.73.
  const core::QppInstance instance = cli_geometric(quorum::grid(3), 16, 1.2);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  ASSERT_TRUE(cert.ok()) << cert.to_string();
  EXPECT_NEAR(lower_bound(cert, "L/5"), 0.10312766657821867, 1e-9);
  EXPECT_NEAR(lower_bound(cert, "direct"), 0.24778300171988538, 1e-9);
  EXPECT_EQ(cert.opt_lower_bound, lower_bound(cert, "direct"));
  EXPECT_NE(cert.to_string().find("(direct; L/5 = 0.103128), ratio 1.73448"),
            std::string::npos)
      << cert.to_string();
}

TEST(Certificate, PassingResiduesPrintBelowAThreshold) {
  Certificate cert;
  cert.add("consistency/residue", 5.1e-15, 0.0, 1e-6);
  cert.add("consistency/exact", 0.0, 0.0, 1e-6);
  cert.add("thm/value", 0.25, 0.5, 1e-6);
  cert.add("thm/tiny-but-failing", -1e-13, -1.0, 1e-6);
  ASSERT_FALSE(cert.ok());
  EXPECT_EQ(cert.checks[0].value, 5.1e-15);  // the raw double is kept
  EXPECT_EQ(cert.to_string(),
            "  ok   consistency/residue: <1e-12 <= 0\n"
            "  ok   consistency/exact: <1e-12 <= 0\n"
            "  ok   thm/value: 0.25 <= 0.5\n"
            "  FAIL thm/tiny-but-failing: -1e-13 <= -1\n");
}

TEST(Certificate, RelayLowerBoundWinsOnMajorityAtCapTwo) {
  const core::QppInstance instance =
      cli_geometric(quorum::majority(5, 3), 24, 2.0);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  ASSERT_TRUE(cert.ok()) << cert.to_string();
  EXPECT_NEAR(lower_bound(cert, "L/5"), 0.079523060184376201, 1e-9);
  EXPECT_NEAR(lower_bound(cert, "direct"), 0.068961535253970863, 1e-9);
  EXPECT_EQ(cert.opt_lower_bound, lower_bound(cert, "L/5"));
  EXPECT_NE(cert.to_string().find("(L/5; direct = "), std::string::npos)
      << cert.to_string();
}

TEST(Certificate, QppRejectsTamperedRelayLpValues) {
  const core::QppInstance instance =
      make_qpp(graph::path_graph(5), quorum::grid(2), 1.0);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(check_certificate(instance, *result).ok());

  core::QppResult best = *result;
  best.best_lp_bound += 0.1;
  EXPECT_EQ(failed_checks(check_certificate(instance, best)),
            std::vector<std::string>{"consistency/best-lp-bound"});

  core::QppResult relay = *result;
  relay.relay_lps.back().objective += 0.1;
  EXPECT_EQ(failed_checks(check_certificate(instance, relay)),
            std::vector<std::string>{"consistency/relay-lp-objective"});
}

TEST(Certificate, UnusableRelayDualsGiveTheStrippedVerdict) {
  // Records whose duals are NaN, of the wrong length, or name rows out of
  // range or twice are ignored: the checker solves those LPs itself, exactly
  // as for records without duals.
  const core::QppInstance instance = cli_geometric(quorum::grid(2), 12, 1.2);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->relay_lps.size(),
            static_cast<std::size_t>(instance.num_nodes()));
  core::QppResult stripped = *result;
  core::QppResult with_nan = *result;
  core::QppResult wrong_length = *result;
  core::QppResult out_of_range = *result;
  core::QppResult duplicated = *result;
  for (std::size_t i = 0; i < result->relay_lps.size(); ++i) {
    stripped.relay_lps[i].duals = {};
    with_nan.relay_lps[i].duals.values[i] =
        std::numeric_limits<double>::quiet_NaN();
    wrong_length.relay_lps[i].duals.values.pop_back();
    out_of_range.relay_lps[i].duals.rows.back() = 1 << 30;
    std::vector<int>& rows = duplicated.relay_lps[i].duals.rows;
    rows[i + 1] = rows[i];
  }

  Certificate intact_cert;
  Certificate stripped_cert;
  const std::uint64_t intact_solves = lp_solves_of(
      [&] { intact_cert = check_certificate(instance, *result); });
  const std::uint64_t stripped_solves = lp_solves_of(
      [&] { stripped_cert = check_certificate(instance, stripped); });
  if (obs::compiled_in()) {
    EXPECT_EQ(intact_solves, 0u);
    EXPECT_EQ(stripped_solves, static_cast<std::uint64_t>(instance.num_nodes()));
  }
  ASSERT_TRUE(stripped_cert.ok()) << stripped_cert.to_string();
  const core::QppResult* const others[] = {
      &*result, &with_nan, &wrong_length, &out_of_range, &duplicated};
  for (const core::QppResult* other : others) {
    const Certificate cert = check_certificate(instance, *other);
    EXPECT_EQ(cert.ok(), stripped_cert.ok());
    ASSERT_EQ(cert.lower_bounds.size(), stripped_cert.lower_bounds.size());
    for (std::size_t i = 0; i < cert.lower_bounds.size(); ++i) {
      EXPECT_NEAR(cert.lower_bounds[i].value,
                  stripped_cert.lower_bounds[i].value, 1e-9);
    }
    EXPECT_NEAR(cert.certified_ratio, stripped_cert.certified_ratio, 1e-9);
  }
}

TEST(Certificate, DroppedRelayRowsOnlyWeakenTheBound) {
  // Names that drop rows (with their duals) are usable: the checker bounds
  // the relaxation over the rows still named, which can only lose, never
  // certify more than Z*.
  const core::QppInstance instance = cli_geometric(quorum::grid(2), 12, 1.2);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate intact = check_certificate(instance, *result);
  ASSERT_TRUE(intact.ok()) << intact.to_string();
  for (const std::size_t stride : {2U, 3U, 7U}) {
    SCOPED_TRACE(stride);
    core::QppResult dropped = *result;
    for (core::RelayLp& record : dropped.relay_lps) {
      core::SsqppDuals kept;
      for (std::size_t i = 0; i < record.duals.rows.size(); ++i) {
        if (i % stride == 0) continue;
        kept.rows.push_back(record.duals.rows[i]);
        kept.values.push_back(record.duals.values[i]);
      }
      record.duals = std::move(kept);
    }
    Certificate cert;
    const std::uint64_t solves =
        lp_solves_of([&] { cert = check_certificate(instance, dropped); });
    if (obs::compiled_in()) {
      EXPECT_EQ(solves, 0u);
    }
    ASSERT_EQ(cert.lower_bounds.size(), intact.lower_bounds.size());
    bool weaker = false;
    for (std::size_t i = 0; i < cert.lower_bounds.size(); ++i) {
      EXPECT_LE(cert.lower_bounds[i].value,
                intact.lower_bounds[i].value + 1e-12);
      weaker = weaker ||
               cert.lower_bounds[i].value < intact.lower_bounds[i].value - 1e-9;
    }
    EXPECT_TRUE(weaker);
  }
}

TEST(Certificate, SsqppAndTotalDelayDualsAreUntrusted) {
  // Unusable duals fall back to the checker's own solve; finite but wrong
  // duals give a weaker, still sound bound that no longer matches the
  // reported LP value.
  const core::QppInstance instance = cli_geometric(quorum::grid(2), 12, 1.2);
  const core::SsqppInstance view = core::single_source_view(instance, 3);
  const auto single = core::solve_ssqpp(view, 2.0);
  ASSERT_TRUE(single.has_value());
  const Certificate single_cert = check_certificate(view, *single);
  ASSERT_TRUE(single_cert.ok()) << single_cert.to_string();
  core::SsqppResult single_nan = *single;
  single_nan.lp_duals.values.front() = std::numeric_limits<double>::quiet_NaN();
  const Certificate nan_cert = check_certificate(view, single_nan);
  EXPECT_TRUE(nan_cert.ok());
  EXPECT_NEAR(nan_cert.opt_lower_bound, single_cert.opt_lower_bound, 1e-9);
  core::SsqppResult single_scaled = *single;
  for (double& y : single_scaled.lp_duals.values) y *= 1.5;
  const Certificate scaled_cert = check_certificate(view, single_scaled);
  EXPECT_FALSE(scaled_cert.ok());
  EXPECT_LT(scaled_cert.opt_lower_bound, single_cert.opt_lower_bound);

  const auto total = core::solve_total_delay(instance);
  ASSERT_TRUE(total.has_value());
  const Certificate total_cert = check_certificate(instance, *total);
  ASSERT_TRUE(total_cert.ok()) << total_cert.to_string();
  core::TotalDelayResult total_short = *total;
  total_short.lp_duals.pop_back();
  const Certificate short_cert = check_certificate(instance, total_short);
  EXPECT_TRUE(short_cert.ok());
  EXPECT_NEAR(short_cert.opt_lower_bound, total_cert.opt_lower_bound, 1e-9);
  core::TotalDelayResult total_flipped = *total;
  for (double& y : total_flipped.lp_duals) y = -y;
  EXPECT_FALSE(check_certificate(instance, total_flipped).ok());
}

TEST(Certificate, TotalDelayResultIsCertified) {
  const core::QppInstance instance =
      make_qpp(graph::path_graph(4), quorum::grid(2), 1.0);
  const auto result = core::solve_total_delay(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  EXPECT_TRUE(cert.ok()) << cert.to_string();

  core::TotalDelayResult tampered = *result;
  tampered.lp_objective += 1.0;
  EXPECT_FALSE(check_certificate(instance, tampered).ok());
}

TEST(Certificate, MajorityLayoutMatchesEq19) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::majority(4, 3), 1.0, 0);
  const auto result = core::majority_layout(instance, 3);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result, 3);
  EXPECT_TRUE(cert.ok()) << cert.to_string();

  core::MajorityLayoutResult tampered = *result;
  tampered.formula_delay += 0.25;
  EXPECT_FALSE(check_certificate(instance, tampered, 3).ok());
}

// --------------------------------------------------------------- macros

#if QPLACE_CONTRACTS

using CheckContractsDeathTest = ::testing::Test;

TEST(CheckContractsDeathTest, InvariantAbortsWithContext) {
  EXPECT_DEATH(QP_INVARIANT(1 + 1 == 3, "arithmetic broke"),
               "contract violation \\[INVARIANT\\]");
}

TEST(CheckContractsDeathTest, RequireAbortsWithContext) {
  EXPECT_DEATH(QP_REQUIRE(false, "unmet precondition"),
               "contract violation \\[REQUIRE\\]");
}

TEST(CheckContractsDeathTest, HotPathBoundsContractFires) {
  const graph::Metric metric = graph::Metric::from_graph(graph::path_graph(3));
  EXPECT_DEATH(static_cast<void>(metric(0, 99)), "contract violation");
}

#else

TEST(CheckContracts, CompiledOutConditionIsNeverEvaluated) {
  int evaluations = 0;
  QP_REQUIRE(++evaluations > 0, "must not run in release");
  QP_INVARIANT(++evaluations > 0, "must not run in release");
  EXPECT_EQ(evaluations, 0);
}

#endif

}  // namespace
}  // namespace qp::check
