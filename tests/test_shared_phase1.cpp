/// Phase 1 solved once and shared (lp::solve_phase1, and per relay sweep
/// core::ssqpp_phase1_start): every solve that starts from a phase 1 must
/// equal the cold solve bit for bit, on the relay LPs and on hand-built and
/// random LPs, and the sweeps that share it must return what cold solves
/// return.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/evaluators.hpp"
#include "core/multi_strategy.hpp"
#include "core/qpp_solver.hpp"
#include "core/ssqpp_lp.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "lp/simplex.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"

namespace qp {
namespace {

std::uint64_t counter(const std::string& name) {
  const auto counters = obs::Registry::instance().counter_values();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Equal as bits, so 0.0 and -0.0 (or two NaNs) are told apart.
bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return std::ranges::equal(x, y, [](double a, double b) {
    return same_bits(a, b);
  });
}

void expect_same_solution(const lp::Solution& cold, const lp::Solution& warm) {
  EXPECT_EQ(cold.status, warm.status);
  EXPECT_EQ(cold.iterations, warm.iterations);
  EXPECT_TRUE(same_bits(cold.objective, warm.objective));
  EXPECT_TRUE(same_bits(cold.values, warm.values));
  EXPECT_TRUE(same_bits(cold.duals, warm.duals));
}

void expect_same_fractional(const core::FractionalSsqpp& cold,
                            const core::FractionalSsqpp& warm) {
  EXPECT_EQ(cold.status, warm.status);
  EXPECT_TRUE(same_bits(cold.objective, warm.objective));
  EXPECT_TRUE(same_bits(cold.x_tu, warm.x_tu));
  EXPECT_TRUE(same_bits(cold.x_tq, warm.x_tq));
  EXPECT_EQ(cold.duals.rows, warm.duals.rows);
  EXPECT_TRUE(same_bits(cold.duals.values, warm.duals.values));
}

/// The geometric instance `qplace solve --topology geometric --seed 1`
/// builds for `system` on n nodes, every capacity `cap_factor` x the
/// largest element load.
core::QppInstance uniform_instance(const quorum::QuorumSystem& system, int n,
                                   double cap_factor = 1.2) {
  std::mt19937_64 rng(1);
  graph::Metric metric =
      graph::Metric::from_graph(graph::random_geometric(n, 0.45, rng).graph);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double cap =
      cap_factor * *std::max_element(loads.begin(), loads.end());
  std::vector<double> caps(static_cast<std::size_t>(n), cap);
  return core::QppInstance(std::move(metric), std::move(caps), system,
                           strategy);
}

quorum::QuorumSystem system_named(const std::string& name) {
  if (name == "grid3") return quorum::grid(3);
  if (name == "grid2") return quorum::grid(2);
  return quorum::majority(5, 3);
}

/// Solves `model` cold and from `start`, which must be a phase 1 of the
/// same rows; expects the two equal bit for bit and the start used. Returns
/// the cold solution.
lp::Solution expect_start_equals_cold(const lp::Model& model,
                                      const lp::Phase1& start,
                                      const lp::SimplexOptions& options = {}) {
  const lp::Solution cold = lp::solve(model, options);
  const std::uint64_t reused = counter("lp.phase1_reused");
  const lp::Solution warm = lp::solve(model, options, &start);
  if (obs::compiled_in()) {
    EXPECT_EQ(counter("lp.phase1_reused"), reused + 1);
  }
  expect_same_solution(cold, warm);
  return cold;
}

/// Phase-2 iterations of a solve that ran phase 1 as `start` did.
std::int64_t phase2_iterations(const lp::Solution& solution,
                               const lp::Phase1& start) {
  return solution.iterations - start.iterations();
}

// >= rows and negative rhs: the >= slack's -1 column, the artificials, and
// rows negated on the way in, whose duals change sign.
TEST(SharedPhase1, GreaterEqualRowsAndNegativeRhs) {
  lp::Model model;
  for (const double cost : {3.0, 1.0, -4.0, 0.5}) model.add_variable(cost);
  model.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}},
                       lp::Relation::kGreaterEqual, 2.0);
  model.add_constraint({{0, -1.0}, {2, 1.0}}, lp::Relation::kLessEqual, -1.0);
  model.add_constraint({{1, 1.0}, {2, -1.0}, {3, 1.0}},
                       lp::Relation::kGreaterEqual, -3.0);
  model.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}},
                       lp::Relation::kLessEqual, 10.0);
  model.add_constraint({{1, 2.0}, {3, -1.0}}, lp::Relation::kGreaterEqual,
                       -4.0);
  const lp::Phase1 start = lp::solve_phase1(model);
  const lp::Solution cold = expect_start_equals_cold(model, start);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(phase2_iterations(cold, start), 1);
  // Both negated rows bind: the <= row (now >=, so a -1 slack) has a dual
  // <= 0, the >= row (now <=) one >= 0.
  EXPECT_LT(cold.duals[1], 0.0);
  EXPECT_GT(cold.duals[2], 0.0);
}

// Equality rows keep their artificials as dual columns; one has a negative
// rhs.
TEST(SharedPhase1, EqualityRows) {
  lp::Model model;
  for (const double cost : {-0.5, -1.0, 2.0, -3.0, 0.0}) {
    model.add_variable(cost);
  }
  model.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, lp::Relation::kEqual,
                       4.0);
  model.add_constraint({{1, -1.0}, {3, -2.0}, {4, 1.0}}, lp::Relation::kEqual,
                       -2.0);
  model.add_constraint({{2, 1.0}, {3, 1.0}, {4, 1.0}},
                       lp::Relation::kLessEqual, 6.0);
  model.add_constraint({{0, 1.0}, {3, 1.0}}, lp::Relation::kGreaterEqual, 1.0);
  const lp::Phase1 start = lp::solve_phase1(model);
  const lp::Solution cold = expect_start_equals_cold(model, start);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(phase2_iterations(cold, start), 1);
  EXPECT_NE(cold.duals[0], 0.0);
  EXPECT_NE(cold.duals[1], 0.0);
}

// Phase 2 pivots on row 0 twice: x1 enters there (ratio 2 against 10),
// then x0 (ratio 4 against 10) drives x1 out again. The second pivot row
// is rebuilt from the first one's scaled row.
TEST(SharedPhase1, RowPivotedTwice) {
  lp::Model model;
  for (const double cost : {-2.0, -3.0, 0.0}) model.add_variable(cost);
  model.add_constraint({{0, 1.0}, {1, 2.0}}, lp::Relation::kLessEqual, 4.0);
  model.add_constraint({{0, 1.0}}, lp::Relation::kLessEqual, 10.0);
  model.add_constraint({{2, 1.0}}, lp::Relation::kEqual, 1.0);
  const lp::Phase1 start = lp::solve_phase1(model);
  const lp::Solution cold = expect_start_equals_cold(model, start);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(cold.values, (std::vector<double>{4.0, 0.0, 1.0}));
  EXPECT_EQ(cold.objective, -8.0);
  // Two pivots and the optimality check.
  EXPECT_EQ(phase2_iterations(cold, start), 3);
}

TEST(SharedPhase1, UnboundedPhase2) {
  lp::Model model;
  for (const double cost : {-1.0, 0.0, 1.0}) model.add_variable(cost);
  model.add_constraint({{0, 1.0}, {1, -1.0}}, lp::Relation::kGreaterEqual,
                       1.0);
  model.add_constraint({{1, 1.0}, {2, 1.0}}, lp::Relation::kLessEqual, 5.0);
  model.add_constraint({{0, -1.0}, {2, 1.0}}, lp::Relation::kLessEqual, 2.0);
  const lp::Phase1 start = lp::solve_phase1(model);
  ASSERT_EQ(start.status(), lp::SolveStatus::kOptimal);
  EXPECT_EQ(expect_start_equals_cold(model, start).status,
            lp::SolveStatus::kUnbounded);
}

/// A random LP on `rows` rows and `vars` variables, feasible at a random
/// point x0 >= 0: coefficients and costs come from small sets with zeros
/// and ties, relations are mixed, and about a third of the rhs are
/// negative. With `bounded`, a last row caps the sum of the variables.
lp::Model random_model(std::mt19937_64& rng, int rows, int vars,
                       bool bounded = true) {
  static constexpr double kCoefficients[] = {-2.0, -1.0, 0.0, 0.0, 0.0,
                                             0.5,  1.0,  1.0, 2.0, 3.0};
  static constexpr double kCosts[] = {-3.0, -1.0, -1.0, 0.0, 1.0, 2.0};
  const auto pick = [&](const auto& set) {
    return set[std::uniform_int_distribution<std::size_t>(
        0, std::size(set) - 1)(rng)];
  };
  lp::Model model;
  std::vector<double> x0;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(pick(kCosts));
    x0.push_back(std::uniform_int_distribution<int>(0, 3)(rng));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<std::pair<int, double>> terms;
    double at_x0 = 0.0;
    for (int j = 0; j < vars; ++j) {
      const double coeff = pick(kCoefficients);
      if (coeff == 0.0) continue;
      terms.emplace_back(j, coeff);
      at_x0 += coeff * x0[static_cast<std::size_t>(j)];
    }
    const int kind = std::uniform_int_distribution<int>(0, 2)(rng);
    const double slack = std::uniform_int_distribution<int>(0, 2)(rng);
    if (kind == 0) {
      model.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                           at_x0 + slack);
    } else if (kind == 1) {
      model.add_constraint(std::move(terms), lp::Relation::kGreaterEqual,
                           at_x0 - slack);
    } else {
      model.add_constraint(std::move(terms), lp::Relation::kEqual, at_x0);
    }
  }
  if (bounded) {
    std::vector<std::pair<int, double>> all;
    for (int j = 0; j < vars; ++j) all.emplace_back(j, 1.0);
    model.add_constraint(std::move(all), lp::Relation::kLessEqual,
                         4.0 * vars);
  }
  return model;
}

/// `model` under another objective: the same rows, so the same phase 1.
lp::Model with_costs(lp::Model model, std::mt19937_64& rng) {
  for (int j = 0; j < model.num_variables(); ++j) {
    model.set_objective_coefficient(
        j, std::uniform_int_distribution<int>(-3, 2)(rng));
  }
  return model;
}

// Random LPs, each solved under two objectives from one phase 1 (taken
// under a third), at the default stall threshold and at 1, where every
// degenerate pivot switches to Bland's rule.
TEST(SharedPhase1, RandomModelsEqualTheirColdSolves) {
  std::mt19937_64 rng(20261018);
  int optimal = 0;
  int long_enough = 0;
  int statuses[4] = {};
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const int rows = std::uniform_int_distribution<int>(1, 12)(rng);
    const int vars = std::uniform_int_distribution<int>(1, 12)(rng);
    const lp::Model model = random_model(rng, rows, vars, trial % 5 != 0);
    lp::SimplexOptions options;
    options.stall_threshold = trial % 2 == 0 ? 1 : 64;
    const lp::Phase1 start = lp::solve_phase1(model, options);
    for (int objective = 0; objective < 2; ++objective) {
      const lp::Solution cold =
          expect_start_equals_cold(with_costs(model, rng), start, options);
      ++statuses[static_cast<int>(cold.status)];
      if (cold.status == lp::SolveStatus::kOptimal) {
        ++optimal;
        long_enough += phase2_iterations(cold, start) >= 4 ? 1 : 0;
      }
    }
  }
  // Not vacuous: most solves reach phase 2's optimum after some pivots, and
  // phase 2 also ends unbounded.
  EXPECT_GT(optimal, 300);
  EXPECT_GT(long_enough, 100);
  EXPECT_GT(statuses[static_cast<int>(lp::SolveStatus::kUnbounded)], 0);
}

// Degenerate LPs (every rhs 0 but the bounding row) at stall threshold 1:
// the Bland fallback is taken after nearly every pivot.
TEST(SharedPhase1, BlandFallback) {
  std::mt19937_64 rng(7);
  lp::SimplexOptions bland;
  bland.stall_threshold = 1;
  int pivoted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(trial);
    lp::Model model;
    const int vars = 8;
    for (int j = 0; j < vars; ++j) {
      model.add_variable(std::uniform_int_distribution<int>(-3, 1)(rng));
    }
    for (int i = 0; i < 8; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < vars; ++j) {
        const int coeff = std::uniform_int_distribution<int>(-2, 2)(rng);
        if (coeff != 0) terms.emplace_back(j, coeff);
      }
      model.add_constraint(std::move(terms),
                           i % 3 == 0 ? lp::Relation::kEqual
                                      : lp::Relation::kLessEqual,
                           0.0);
    }
    std::vector<std::pair<int, double>> all;
    for (int j = 0; j < vars; ++j) all.emplace_back(j, 1.0);
    model.add_constraint(std::move(all), lp::Relation::kLessEqual, 1.0);
    const lp::Phase1 start = lp::solve_phase1(model, bland);
    const lp::Solution cold = expect_start_equals_cold(model, start, bland);
    pivoted += phase2_iterations(cold, start) > 2 ? 1 : 0;
  }
  EXPECT_GT(pivoted, 20);
}

// A phase 2 of well over 100 pivots, so rows are rebuilt through long eta
// files and pivot rows recur.
TEST(SharedPhase1, LongPhase2) {
  std::mt19937_64 rng(11);
  lp::Model model;
  const int vars = 120;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(-std::uniform_int_distribution<int>(1, 9)(rng));
  }
  for (int i = 0; i < 80; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < vars; ++j) {
      const int coeff = std::uniform_int_distribution<int>(0, 4)(rng);
      if (coeff != 0) terms.emplace_back(j, coeff);
    }
    model.add_constraint(std::move(terms),
                         i % 4 == 0 ? lp::Relation::kGreaterEqual
                                    : lp::Relation::kLessEqual,
                         i % 4 == 0 ? 5.0 : 100.0 + i);
  }
  const lp::Phase1 start = lp::solve_phase1(model);
  const lp::Solution cold = expect_start_equals_cold(model, start);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(phase2_iterations(cold, start), 100);
}

// Every row holds all 5000 variables, so each phase-1 and phase-2 pivot row
// packs over 5000 nonzeros: more than one block of the eta file (4096
// entries), which then takes a block of its own size.
TEST(SharedPhase1, EtaLongerThanABlock) {
  std::mt19937_64 rng(13);
  lp::Model model;
  const int vars = 5000;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(-std::uniform_int_distribution<int>(1, 9)(rng));
  }
  for (int i = 0; i < 6; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < vars; ++j) {
      terms.emplace_back(j, std::uniform_int_distribution<int>(1, 9)(rng));
    }
    const lp::Relation relation = i == 0   ? lp::Relation::kGreaterEqual
                                  : i == 1 ? lp::Relation::kEqual
                                           : lp::Relation::kLessEqual;
    model.add_constraint(std::move(terms), relation, 100.0 + 10.0 * i);
  }
  const lp::Phase1 start = lp::solve_phase1(model);
  ASSERT_EQ(start.status(), lp::SolveStatus::kOptimal);
  EXPECT_GE(start.iterations(), 2);  // at least one phase-1 pivot
  const lp::Solution cold = expect_start_equals_cold(model, start);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(phase2_iterations(cold, start), 10);  // rows pivoted on again
}

// Tableau::save packs each row of the phase-1 tableau in one pass that
// skips runs of four zeros. Here the tableau has 18 columns (two are left
// over after the runs of four in every row), runs of four zeros, runs whose
// only nonzero is their last entry, and a -0.0 entry: x1's coefficient in
// row 0 is the least subnormal, and phase 1 pivots on row 0 at x0's 4.0,
// which scales it by 0.25 to -0.0. The start must give the cold solve bit
// for bit under several objectives.
TEST(SharedPhase1, StartSavedAcrossZeroRuns) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  lp::Model model;
  for (int j = 0; j < 9; ++j) model.add_variable(0.0);
  model.add_constraint({{0, 4.0}, {1, -kTiny}, {2, 1.0}},
                       lp::Relation::kEqual, 4.0);
  model.add_constraint({{1, 1.0}, {3, 1.0}, {8, 1.0}},
                       lp::Relation::kGreaterEqual, 1.0);
  model.add_constraint({{2, 1.0}, {4, 1.0}}, lp::Relation::kLessEqual, 3.0);
  model.add_constraint({{5, 1.0}, {6, 1.0}, {7, 1.0}},
                       lp::Relation::kGreaterEqual, 2.0);
  model.add_constraint({{0, 1.0}, {5, 1.0}, {8, -1.0}},
                       lp::Relation::kLessEqual, 5.0);
  model.add_constraint({{3, -1.0}, {6, 2.0}}, lp::Relation::kGreaterEqual,
                       -1.0);
  std::vector<std::pair<int, double>> all;
  for (int j = 0; j < 9; ++j) all.emplace_back(j, 1.0);
  model.add_constraint(std::move(all), lp::Relation::kLessEqual, 20.0);
  const lp::Phase1 start = lp::solve_phase1(model);
  ASSERT_EQ(start.status(), lp::SolveStatus::kOptimal);
  std::mt19937_64 rng(3);
  int pivoted = 0;
  for (int objective = 0; objective < 8; ++objective) {
    SCOPED_TRACE(objective);
    const lp::Model costed = with_costs(model, rng);
    const lp::Solution cold = expect_start_equals_cold(costed, start);
    pivoted += cold.status == lp::SolveStatus::kOptimal &&
                       phase2_iterations(cold, start) > 1
                   ? 1
                   : 0;
  }
  EXPECT_GT(pivoted, 2);
}

class SharedPhase1Panel
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

// Every relay's seeded model, solved from relay 0's phase 1, equals its cold
// solve: objective, values, duals and iterations, bit for bit; and so does
// solve_ssqpp_lp's result over all its rounds.
TEST_P(SharedPhase1Panel, EveryRelayEqualsItsColdSolve) {
  const auto [name, n] = GetParam();
  const core::QppInstance instance = uniform_instance(system_named(name), n);
  const std::optional<core::SsqppSeed> start =
      core::ssqpp_phase1_start(core::single_source_view(instance, 0));
  ASSERT_TRUE(start.has_value());
  ASSERT_EQ(start->status(), lp::SolveStatus::kOptimal);
  EXPECT_GT(start->iterations(), 0);
  for (int source = 0; source < n; ++source) {
    SCOPED_TRACE(source);
    const core::SsqppInstance view = core::single_source_view(instance, source);
    const core::SsqppLp seed = core::build_seeded_ssqpp_lp(view);
    const lp::Solution cold = lp::solve(seed.model);
    const std::uint64_t reused = counter("lp.phase1_reused");
    const lp::Solution warm = lp::solve(seed.model, {}, &*start);
    if (obs::compiled_in()) {
      EXPECT_EQ(counter("lp.phase1_reused"), reused + 1);
    }
    ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
    expect_same_solution(cold, warm);
    expect_same_fractional(core::solve_ssqpp_lp(view),
                           core::solve_ssqpp_lp(view, {}, &*start));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Uniform, SharedPhase1Panel,
    ::testing::Combine(::testing::Values("grid3", "grid2", "majority53"),
                       ::testing::Values(14, 32, 64)),
    [](const ::testing::TestParamInfo<SharedPhase1Panel::ParamType>& param) {
      return std::get<0>(param.param) + "_n" +
             std::to_string(std::get<1>(param.param));
    });

/// The Thm 1.2 sweep of solve_qpp with every relay solved cold.
core::RelaySweep<core::SsqppResult> cold_sweep(
    const core::QppInstance& instance, const core::QppSolveOptions& options,
    auto&& score) {
  return core::relay_sweep<core::SsqppResult>(
      instance, core::relay_candidates(instance, options),
      [&](const core::SsqppInstance& view) {
        return core::solve_ssqpp(view, options.alpha, options.simplex);
      },
      score);
}

/// solve_qpp, which solves every relay from one shared phase 1, returns
/// what the sweep of cold solves returns, bit for bit. Sets `warm_pivots`
/// to the pivots solve_qpp counted.
void expect_sweep_equals_cold(const core::QppInstance& instance,
                              const core::QppSolveOptions& options,
                              std::uint64_t& warm_pivots) {
  const auto n = core::relay_candidates(instance, options).size();
  const std::uint64_t reused = counter("lp.phase1_reused");
  const std::uint64_t pivots = counter("lp.pivots");
  const std::optional<core::QppResult> warm =
      core::solve_qpp(instance, options);
  warm_pivots = counter("lp.pivots") - pivots;
  if (obs::compiled_in()) {
    EXPECT_EQ(counter("lp.phase1_reused") - reused, n);
  }
  const auto cold = cold_sweep(instance, options,
                               [&](const core::SsqppResult& single) {
                                 return core::average_max_delay(
                                     instance, single.placement);
                               });
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(cold.winner.has_value());
  const auto& won = cold.feasible[*cold.winner];
  EXPECT_EQ(warm->chosen_source, won.source);
  EXPECT_EQ(warm->placement, won.solution.placement);
  EXPECT_TRUE(same_bits(warm->average_delay, won.objective));
  ASSERT_EQ(warm->relay_lps.size(), cold.feasible.size());
  double best_lp_bound = 0.0;
  for (std::size_t i = 0; i < cold.feasible.size(); ++i) {
    const core::SsqppResult& relay = cold.feasible[i].solution;
    EXPECT_EQ(warm->relay_lps[i].source, cold.feasible[i].source);
    EXPECT_TRUE(same_bits(warm->relay_lps[i].objective, relay.lp_objective));
    EXPECT_EQ(warm->relay_lps[i].duals.rows, relay.lp_duals.rows);
    EXPECT_TRUE(
        same_bits(warm->relay_lps[i].duals.values, relay.lp_duals.values));
    best_lp_bound = std::max(best_lp_bound, relay.lp_objective);
  }
  EXPECT_TRUE(same_bits(warm->best_lp_bound, best_lp_bound));
}

TEST(SharedPhase1, SolveQppEqualsColdSweep) {
  std::uint64_t warm_pivots = 0;
  expect_sweep_equals_cold(uniform_instance(quorum::grid(3), 20), {},
                           warm_pivots);
  // grid(4) at the least n whose relays share a feasible phase 1 (below it
  // the shared phase 1 is infeasible): there every relay's phase 2 takes
  // over 100 pivots. Four relays keep the cold sweep short.
  const core::QppInstance long_phase2 = uniform_instance(quorum::grid(4), 14);
  core::QppSolveOptions four;
  four.max_candidates = 4;
  const std::uint64_t before = counter("lp.pivots");
  const std::optional<lp::Phase1> start =
      core::ssqpp_phase1_start(core::single_source_view(long_phase2, 0));
  ASSERT_TRUE(start.has_value());
  ASSERT_EQ(start->status(), lp::SolveStatus::kOptimal);
  const std::uint64_t phase1_pivots = counter("lp.pivots") - before;
  expect_sweep_equals_cold(long_phase2, four, warm_pivots);
  if (obs::compiled_in()) {
    EXPECT_GE(warm_pivots, phase1_pivots + 4 * 100);
  }

  // Heterogeneous capacities, mirror-symmetric on a path: solve_qpp builds
  // no seed there, so relay 0's is handed to every relay of a sweep here.
  // Only relay 11, whose capacities in distance order are relay 0's, shares
  // the seed's rows; every other relay builds its own model. The sweep
  // returns what cold solves return.
  const int n = 12;
  const quorum::QuorumSystem system = quorum::grid(2);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double max_load = *std::max_element(loads.begin(), loads.end());
  std::vector<double> caps;
  for (int v = 0; v < n; ++v) {
    caps.push_back((1.0 + 0.5 * (std::min(v, n - 1 - v) % 3)) * max_load);
  }
  const core::QppInstance mirrored(
      graph::Metric::from_graph(graph::path_graph(n, 1.0)), caps, system,
      strategy);
  const std::optional<core::SsqppSeed> seed =
      core::ssqpp_phase1_start(core::single_source_view(mirrored, 0));
  ASSERT_TRUE(seed.has_value());
  for (int source = 0; source < n; ++source) {
    SCOPED_TRACE(source);
    const core::SsqppLp first = core::build_seeded_ssqpp_lp(
        core::single_source_view(mirrored, source), &*seed);
    EXPECT_EQ(&first.model.constraints() == &seed->lp.model.constraints(),
              source == 0 || source == n - 1);
  }
  const core::QppSolveOptions options;
  const auto score = [&](const core::SsqppResult& single) {
    return core::average_max_delay(mirrored, single.placement);
  };
  const auto seeded = core::relay_sweep<core::SsqppResult>(
      mirrored, core::relay_candidates(mirrored, options),
      [&](const core::SsqppInstance& view) {
        return core::solve_ssqpp_view(view, options.alpha, options.simplex,
                                      &*seed);
      },
      score);
  const auto cold = cold_sweep(mirrored, options, score);
  ASSERT_EQ(seeded.feasible.size(), cold.feasible.size());
  EXPECT_EQ(seeded.winner, cold.winner);
  for (std::size_t i = 0; i < cold.feasible.size(); ++i) {
    SCOPED_TRACE(i);
    const core::SsqppResult& warm = seeded.feasible[i].solution;
    const core::SsqppResult& relay = cold.feasible[i].solution;
    EXPECT_EQ(seeded.feasible[i].source, cold.feasible[i].source);
    EXPECT_EQ(warm.placement, relay.placement);
    EXPECT_TRUE(same_bits(seeded.feasible[i].objective,
                          cold.feasible[i].objective));
    EXPECT_TRUE(same_bits(warm.lp_objective, relay.lp_objective));
    EXPECT_EQ(warm.lp_duals.rows, relay.lp_duals.rows);
    EXPECT_TRUE(same_bits(warm.lp_duals.values, relay.lp_duals.values));
  }
}

TEST(SharedPhase1, Sec6SweepEqualsColdSweep) {
  const core::QppInstance instance =
      uniform_instance(quorum::majority(5, 3), 16);
  const int n = instance.num_nodes();
  const quorum::QuorumSystem& system = instance.system();
  core::PerClientStrategies strategies;
  for (int v = 0; v < n; ++v) {
    std::vector<double> weights;
    for (int q = 0; q < system.num_quorums(); ++q) {
      weights.push_back(1.0 + (q + v) % 3);
    }
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (double& weight : weights) weight /= total;
    strategies.emplace_back(system, weights);
  }
  const std::vector<double> client_weights(static_cast<std::size_t>(n), 1.0);
  const core::QppSolveOptions options;
  const auto warm = core::solve_qpp_multi(instance.metric(),
                                          instance.capacities(), system,
                                          strategies, client_weights, options);
  const core::QppInstance averaged(
      instance.metric(), instance.capacities(), system,
      core::average_strategy(system, strategies, client_weights),
      client_weights);
  const auto cold = cold_sweep(
      averaged, options, [&](const core::SsqppResult& single) {
        return core::average_max_delay_multi(instance.metric(), system,
                                             strategies, client_weights,
                                             single.placement);
      });
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(cold.winner.has_value());
  const auto& won = cold.feasible[*cold.winner];
  EXPECT_EQ(warm->chosen_source, won.source);
  EXPECT_EQ(warm->placement, won.solution.placement);
  EXPECT_TRUE(same_bits(warm->average_delay, won.objective));
}

// Heterogeneous capacities give each relay other seeded rows: the sweep
// builds no start, and a start of one relay is ignored by another's solve.
TEST(SharedPhase1, HeterogeneousCapsSolveCold) {
  std::mt19937_64 rng(1);
  const int n = 18;
  graph::Metric metric =
      graph::Metric::from_graph(graph::random_geometric(n, 0.45, rng).graph);
  const quorum::QuorumSystem system = quorum::grid(3);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double max_load = *std::max_element(loads.begin(), loads.end());
  std::vector<double> caps;
  for (int v = 0; v < n; ++v) caps.push_back((1.0 + 0.25 * (v % 4)) * max_load);
  const core::QppInstance instance(std::move(metric), caps, system, strategy);

  const std::uint64_t reused = counter("lp.phase1_reused");
  const core::QppSolveOptions options;
  const std::optional<core::QppResult> result =
      core::solve_qpp(instance, options);
  ASSERT_TRUE(result.has_value());
  if (obs::compiled_in()) {
    EXPECT_EQ(counter("lp.phase1_reused"), reused);
  }

  const std::optional<lp::Phase1> start =
      core::ssqpp_phase1_start(core::single_source_view(instance, 0));
  ASSERT_TRUE(start.has_value());
  for (const int source : {1, 5, 11}) {
    SCOPED_TRACE(source);
    const core::SsqppInstance view = core::single_source_view(instance, source);
    const core::SsqppLp seed = core::build_seeded_ssqpp_lp(view);
    const std::uint64_t before = counter("lp.phase1_reused");
    expect_same_solution(lp::solve(seed.model),
                         lp::solve(seed.model, {}, &*start));
    EXPECT_EQ(counter("lp.phase1_reused"), before);
  }
}

// A phase 1 that ends infeasible or at the iteration limit hands that status,
// with the cold solve's iteration count, to every solve from it.
TEST(SharedPhase1, FailedStartsGiveTheColdStatuses) {
  // Three nodes of capacity 0.8 hold less than grid(2)'s total load 3.
  const core::QppInstance infeasible(
      graph::Metric::from_graph(graph::path_graph(3, 1.0)), {0.8, 0.8, 0.8},
      quorum::grid(2), quorum::AccessStrategy::uniform(quorum::grid(2)));
  const core::SsqppInstance view = core::single_source_view(infeasible, 1);
  const std::optional<core::SsqppSeed> start = core::ssqpp_phase1_start(
      core::single_source_view(infeasible, 0));
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(start->status(), lp::SolveStatus::kInfeasible);
  const core::SsqppLp seed = core::build_seeded_ssqpp_lp(view);
  expect_same_solution(lp::solve(seed.model),
                       lp::solve(seed.model, {}, &*start));
  EXPECT_EQ(core::solve_ssqpp_lp(view, {}, &*start).status,
            lp::SolveStatus::kInfeasible);
  EXPECT_FALSE(core::solve_qpp(infeasible).has_value());

  // On grid(3): a limit inside phase 1, then one inside phase 2.
  const core::QppInstance instance = uniform_instance(quorum::grid(3), 14);
  const core::SsqppLp relay =
      core::build_seeded_ssqpp_lp(core::single_source_view(instance, 3));
  const std::int64_t phase1_iterations =
      core::ssqpp_phase1_start(core::single_source_view(instance, 0))
          ->iterations();
  for (const std::int64_t limit : {phase1_iterations / 2,
                                   phase1_iterations + 2}) {
    SCOPED_TRACE(limit);
    lp::SimplexOptions options;
    options.max_iterations = limit;
    const std::optional<lp::Phase1> limited = core::ssqpp_phase1_start(
        core::single_source_view(instance, 0), options);
    ASSERT_TRUE(limited.has_value());
    EXPECT_EQ(limited->status(), limit < phase1_iterations
                                     ? lp::SolveStatus::kIterationLimit
                                     : lp::SolveStatus::kOptimal);
    const lp::Solution cold = lp::solve(relay.model, options);
    EXPECT_EQ(cold.status, lp::SolveStatus::kIterationLimit);
    expect_same_solution(cold, lp::solve(relay.model, options, &*limited));
    // A start solved under other options is not this solve's phase 1.
    expect_same_solution(lp::solve(relay.model),
                         lp::solve(relay.model, {}, &*limited));
  }
}

// The start is built before the sweep on the calling thread, so the work
// counters are those of one phase 1 plus every relay's phase 2 at any pool
// size.
TEST(SharedPhase1, CountersDoNotDependOnThreads) {
  const core::QppInstance instance = uniform_instance(quorum::grid(3), 24);
  const auto counted = [&](int threads) {
    exec::set_num_threads(threads);
    obs::Registry::instance().reset_all();
    EXPECT_TRUE(core::solve_qpp(instance).has_value());
    exec::set_num_threads(0);
    return obs::Registry::instance().counter_values();
  };
  const auto at_one = counted(1);
  const auto at_eight = counted(8);
  for (const char* name : {"lp.solves", "lp.iterations", "lp.pivots",
                           "lp.phase1_reused", "ssqpp_lp.rounds"}) {
    SCOPED_TRACE(name);
    const auto one = at_one.find(name);
    const auto eight = at_eight.find(name);
    ASSERT_EQ(one != at_one.end(), eight != at_eight.end());
    if (one != at_one.end()) {
      EXPECT_EQ(one->second, eight->second);
    }
  }
  if (obs::compiled_in()) {
    EXPECT_EQ(at_one.at("lp.phase1_reused"), 24u);
  }
}

}  // namespace
}  // namespace qp
