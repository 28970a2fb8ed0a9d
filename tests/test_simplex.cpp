#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "assign/gap.hpp"
#include "core/qpp_solver.hpp"
#include "core/ssqpp_lp.hpp"
#include "core/total_delay.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "lp/model.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"

namespace qp::lp {
namespace {

TEST(Model, TracksVariablesAndConstraints) {
  Model m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(-2.0);
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(x, 0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 4.0);
  EXPECT_EQ(m.num_constraints(), 1);
  m.set_objective_coefficient(y, 2.0);
  EXPECT_DOUBLE_EQ(m.objective()[1], 2.0);
}

TEST(Model, RejectsUnknownVariable) {
  Model m;
  m.add_variable(1.0);
  EXPECT_THROW(m.add_constraint({{3, 1.0}}, Relation::kEqual, 1.0),
               std::invalid_argument);
  EXPECT_THROW(m.set_objective_coefficient(7, 1.0), std::invalid_argument);
}

// A copy of a model shares its rows, the objective apart; add_constraint on
// a model whose rows are shared copies them first, so the other models' rows
// are left as they were, and a phase 1 that keeps them still starts only
// models with those rows.
TEST(LpModel, SharedRowsCopyOnWrite) {
  using Terms = std::vector<std::pair<int, double>>;
  Model a;
  a.add_variable(-1.0);
  a.add_variable(-2.0);
  a.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLessEqual, 4.0);
  Model b = a;
  EXPECT_EQ(&a.constraints(), &b.constraints());
  b.set_objective_coefficient(0, -3.0);
  EXPECT_EQ(a.objective()[0], -1.0);
  EXPECT_EQ(&a.constraints(), &b.constraints());

  b.add_constraint({{1, 2.0}}, Relation::kLessEqual, 1.0);
  EXPECT_NE(&a.constraints(), &b.constraints());
  ASSERT_EQ(a.num_constraints(), 1);
  EXPECT_EQ(a.constraints()[0].terms, (Terms{{0, 1.0}, {1, 1.0}}));
  EXPECT_EQ(a.constraints()[0].relation, Relation::kLessEqual);
  EXPECT_EQ(a.constraints()[0].rhs, 4.0);
  ASSERT_EQ(b.num_constraints(), 2);
  EXPECT_EQ(b.constraints()[0].terms, a.constraints()[0].terms);
  EXPECT_EQ(b.constraints()[1].terms, (Terms{{1, 2.0}}));
  // b's rows are its own now, so it writes them in place.
  const std::vector<Constraint>* rows = &b.constraints();
  b.add_constraint({{0, 1.0}}, Relation::kGreaterEqual, 0.5);
  EXPECT_EQ(&b.constraints(), rows);
  EXPECT_EQ(b.num_constraints(), 3);

  // solve_phase1 keeps a's rows shared; a row added to a then leaves the
  // start with a's old rows, which no longer start a.
  const Phase1 start = solve_phase1(a);
  const Model before = a;
  a.add_constraint({{0, 1.0}}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(before.num_constraints(), 1);
  EXPECT_EQ(a.num_constraints(), 2);
  const Solution cold = solve(a);
  const Solution warm = solve(a, {}, &start);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.values, cold.values);
  EXPECT_EQ(solve(before, {}, &start).objective, solve(before).objective);
}

TEST(Simplex, SimpleMaximizationAsMinimization) {
  // max x + y s.t. x <= 2, y <= 3  ->  min -x - y; optimum -(2+3).
  Model m;
  const int x = m.add_variable(-1.0);
  const int y = m.add_variable(-1.0);
  m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 2.0);
  m.add_constraint({{y, 1.0}}, Relation::kLessEqual, 3.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-9);
  EXPECT_NEAR(s.values[0], 2.0, 1e-9);
  EXPECT_NEAR(s.values[1], 3.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariableProblem) {
  // min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Dantzig's example);
  // optimum at (2, 6) with value -36.
  Model m;
  const int x = m.add_variable(-3.0);
  const int y = m.add_variable(-5.0);
  m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
  EXPECT_NEAR(s.values[0], 2.0, 1e-8);
  EXPECT_NEAR(s.values[1], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
  // min x + 2y s.t. x + y = 3, x - y = 1  ->  x = 2, y = 1.
  Model m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(2.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEqual, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 2.0, 1e-9);
  EXPECT_NEAR(s.values[1], 1.0, 1e-9);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1  ->  (4, 0) value 8.
  Model m;
  const int x = m.add_variable(2.0);
  const int y = m.add_variable(3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 4.0);
  m.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  m.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m;
  const int x = m.add_variable(-1.0);
  const int y = m.add_variable(0.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  Model m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, -1.0}}, Relation::kLessEqual, -3.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 3.0, 1e-9);
}

TEST(Simplex, DuplicateTermsAreSummed) {
  // x + x <= 4  ->  x <= 2 for min -x.
  Model m;
  const int x = m.add_variable(-1.0);
  m.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kLessEqual, 4.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 2.0, 1e-9);
}

TEST(Simplex, NoConstraintsOptimalAtZero) {
  Model m;
  m.add_variable(5.0);
  m.add_variable(0.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(Simplex, NoConstraintsUnboundedWithNegativeCost) {
  Model m;
  m.add_variable(-1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic cycling-prone degenerate LP (Beale); Bland fallback must
  // terminate at optimum -0.05.
  Model m;
  const int x1 = m.add_variable(-0.75);
  const int x2 = m.add_variable(150.0);
  const int x3 = m.add_variable(-0.02);
  const int x4 = m.add_variable(6.0);
  m.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint({{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(Simplex, TransportationProblem) {
  // 2 supplies (10, 20), 3 demands (5, 10, 15); costs row-major.
  const double cost[2][3] = {{2.0, 4.0, 5.0}, {3.0, 1.0, 7.0}};
  const double supply[2] = {10.0, 20.0};
  const double demand[3] = {5.0, 10.0, 15.0};
  Model m;
  int x[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) x[i][j] = m.add_variable(cost[i][j]);
  }
  for (int i = 0; i < 2; ++i) {
    m.add_constraint({{x[i][0], 1.0}, {x[i][1], 1.0}, {x[i][2], 1.0}},
                     Relation::kLessEqual, supply[i]);
  }
  for (int j = 0; j < 3; ++j) {
    m.add_constraint({{x[0][j], 1.0}, {x[1][j], 1.0}},
                     Relation::kGreaterEqual, demand[j]);
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // Optimal: x[1][0]=5, x[1][1]=10, x[0][2]=10, x[1][2]=5:
  // 15 + 10 + 50 + 35 = 110.
  EXPECT_NEAR(s.objective, 110.0, 1e-8);
}

TEST(Simplex, RedundantEqualityRowsHandled) {
  // Second row is 2x the first: phase 1 leaves a degenerate artificial in a
  // dependent row, which must not disturb phase 2.
  Model m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 2.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEqual, 4.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
  EXPECT_NEAR(s.values[0] + s.values[1], 2.0, 1e-9);
}

TEST(Simplex, InconsistentDependentRowsInfeasible) {
  Model m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 2.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEqual, 5.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, ZeroRhsEqualityPinned) {
  // x - y = 0 with min x + 2y: optimum at the origin.
  Model m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(2.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEqual, 0.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(Simplex, AssignmentLpIsIntegral) {
  // 3x3 assignment polytope has integral vertices; simplex must return a
  // permutation matrix matching the Hungarian optimum (value 5, see
  // test_hungarian.cpp).
  const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  Model m;
  int x[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) x[i][j] = m.add_variable(cost[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    m.add_constraint({{x[i][0], 1.0}, {x[i][1], 1.0}, {x[i][2], 1.0}},
                     Relation::kEqual, 1.0);
    m.add_constraint({{x[0][i], 1.0}, {x[1][i], 1.0}, {x[2][i], 1.0}},
                     Relation::kEqual, 1.0);
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
  for (const double v : s.values) {
    EXPECT_TRUE(std::abs(v) < 1e-7 || std::abs(v - 1.0) < 1e-7)
        << "fractional vertex: " << v;
  }
}

TEST(Simplex, IterationLimitReported) {
  Model m;
  const int x = m.add_variable(-1.0);
  m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 5.0);
  SimplexOptions options;
  options.max_iterations = 0;
  EXPECT_EQ(solve(m, options).status, SolveStatus::kIterationLimit);
}

TEST(SolveStatusToString, AllValues) {
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

/// The current value of the named counter (0 if never incremented).
std::uint64_t counter(const std::string& name) {
  const auto counters = obs::Registry::instance().counter_values();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// lp.iterations and lp.pivots counted while \p call runs.
struct LpWork {
  std::uint64_t iterations = 0;
  std::uint64_t pivots = 0;
};

template <typename Call>
LpWork lp_work_of(Call&& call) {
  const LpWork before{counter("lp.iterations"), counter("lp.pivots")};
  call();
  return {counter("lp.iterations") - before.iterations,
          counter("lp.pivots") - before.pivots};
}

/// `system` on `graph` as `qplace solve` builds it: uniform strategy,
/// capacity 1.2 x the largest element load.
core::QppInstance cli_instance(const graph::Graph& graph,
                               quorum::QuorumSystem system) {
  graph::Metric metric = graph::Metric::from_graph(graph);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  double max_load = 0.0;
  for (const double load : quorum::element_loads(system, strategy)) {
    max_load = std::max(max_load, load);
  }
  std::vector<double> capacities(
      static_cast<std::size_t>(metric.num_points()), 1.2 * max_load);
  return core::QppInstance(std::move(metric), std::move(capacities),
                           std::move(system), std::move(strategy));
}

/// grid(3) on the 16-node random geometric graph of `qplace solve --system
/// grid --k 3 --topology geometric --nodes 16 --seed 1`.
core::QppInstance pinned_instance() {
  std::mt19937_64 rng(1);
  return cli_instance(graph::random_geometric(16, 0.45, rng).graph,
                      quorum::grid(3));
}

// Pins the pivot path on the full Thm 1.2 relay LPs (9)-(14) and the Thm
// 5.1 GAP LP: iteration and pivot counts and the objective, bit for bit, as
// the full dense row update produced them. Any kernel change that moves one
// pivot, or lands on another degenerate vertex, fails here rather than
// inside a 10% counter-drift gate.
TEST(Simplex, PivotPathIsPinned) {
  const core::QppInstance instance = pinned_instance();
  struct Pinned {
    int source;
    std::uint64_t iterations;
    std::uint64_t pivots;
    double objective;
  };
  const Pinned relay_lps[] = {
      {0, 297, 295, 0.23917684864208102},
      {7, 295, 293, 0.15881189669398874},
      {13, 297, 295, 0.25695676758072772},
  };
  for (const Pinned& pinned : relay_lps) {
    SCOPED_TRACE(pinned.source);
    Solution relay_lp;
    const LpWork work = lp_work_of([&] {
      relay_lp = solve(core::build_ssqpp_lp(
                           core::single_source_view(instance, pinned.source))
                           .model);
    });
    ASSERT_EQ(relay_lp.status, SolveStatus::kOptimal);
    EXPECT_EQ(relay_lp.objective, pinned.objective);
    if (obs::compiled_in()) {
      EXPECT_EQ(work.iterations, pinned.iterations);
      EXPECT_EQ(work.pivots, pinned.pivots);
    }
  }

  std::optional<core::TotalDelayResult> gap;
  const LpWork work =
      lp_work_of([&] { gap = core::solve_total_delay(instance); });
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->lp_objective, 2.0396838676880913);
  if (obs::compiled_in()) {
    EXPECT_EQ(work.iterations, 63u);
    EXPECT_EQ(work.pivots, 61u);
  }
}

// The same relays through solve_ssqpp_lp, which solves only the rows and
// ranks the optimum uses: one round each here, fewer pivots, and the full
// pin's objective bit for bit.
TEST(Simplex, SeededRelayPathIsPinned) {
  const core::QppInstance instance = pinned_instance();
  struct Pinned {
    int source;
    std::uint64_t rounds;
    std::uint64_t iterations;
    std::uint64_t pivots;
    double objective;
  };
  const Pinned relay_lps[] = {
      {0, 1, 225, 232, 0.23917684864208102},
      {7, 1, 223, 230, 0.15881189669398874},
      {13, 1, 225, 232, 0.25695676758072772},
  };
  for (const Pinned& pinned : relay_lps) {
    SCOPED_TRACE(pinned.source);
    core::FractionalSsqpp relay_lp;
    const std::uint64_t rounds_before = counter("ssqpp_lp.rounds");
    const LpWork work = lp_work_of([&] {
      relay_lp = core::solve_ssqpp_lp(
          core::single_source_view(instance, pinned.source));
    });
    ASSERT_EQ(relay_lp.status, SolveStatus::kOptimal);
    EXPECT_EQ(relay_lp.objective, pinned.objective);
    if (obs::compiled_in()) {
      EXPECT_EQ(counter("ssqpp_lp.rounds") - rounds_before, pinned.rounds);
      EXPECT_EQ(work.iterations, pinned.iterations);
      EXPECT_EQ(work.pivots, pinned.pivots);
    }
  }
}

/// FNV-1a over the bits of every value, then every dual, of a solution.
std::uint64_t solution_digest(const Solution& solution) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&](const std::vector<double>& xs) {
    for (const double x : xs) {
      const auto bits = std::bit_cast<std::uint64_t>(x);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffU;
        hash *= 1099511628211ULL;
      }
    }
  };
  mix(solution.values);
  mix(solution.duals);
  return hash;
}

/// A cold solve as the dense tableau left it: the objective's bits, the
/// iterations, the pivots and solution_digest.
struct ColdSolve {
  std::uint64_t objective_bits;
  std::int64_t iterations;
  std::uint64_t pivots;
  std::uint64_t digest;
};

/// Expects `call`, which returns a Solution, to reproduce `pinned`; the
/// pivots are those counted while it runs.
template <typename Call>
void expect_pinned_solve(Call&& call, const ColdSolve& pinned) {
  Solution solution;
  const LpWork work = lp_work_of([&] { solution = call(); });
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.objective),
            pinned.objective_bits);
  EXPECT_EQ(solution.iterations, pinned.iterations);
  if (obs::compiled_in()) {
    EXPECT_EQ(work.pivots, pinned.pivots);
  }
  EXPECT_EQ(solution_digest(solution), pinned.digest);
}

void expect_cold_solve(const Model& model, const ColdSolve& pinned) {
  expect_pinned_solve([&] { return solve(model); }, pinned);
}

// Pins the cold solve of the Thm 5.1 GAP LP (15)-(18) on a Waxman n = 128,
// grid(4) instance (as `qplace solve --algorithm total --topology waxman
// --nodes 128 --system grid --k 4` builds it) bit for bit: objective,
// iterations, pivots and every value and dual. Where the tableau is
// written, and what is left untouched, may change; none of this may.
TEST(Simplex, GapLpColdSolveIsPinned) {
  std::mt19937_64 rng(1);
  const core::QppInstance instance =
      cli_instance(graph::waxman(128, 0.9, 0.4, rng).graph, quorum::grid(4));
  const Model model =
      assign::build_gap_lp(core::total_delay_gap(instance)).model;
  // objective 2.5961745598798935
  expect_cold_solve(model,
                    {0x4004c4f72aeb2175ULL, 209, 207, 0xbd66d842965437e3ULL});
}

// The GAP LP of `qplace solve --algorithm total --topology waxman --nodes
// 256 --system grid --k 5`: most of its pivots update enough entries that
// Tableau::pivot eliminates its rows on the exec pool. The cold solve must
// be the serial elimination's, bit for bit, at 1 and 8 threads, and the
// pool must have run. (Named for the determinism suite, which the
// ThreadSanitizer job selects by name.)
TEST(ParallelDeterminism, GapLpPivotBitIdentical) {
  std::mt19937_64 rng(1);
  const core::QppInstance instance =
      cli_instance(graph::waxman(256, 0.9, 0.4, rng).graph, quorum::grid(5));
  const Model model =
      assign::build_gap_lp(core::total_delay_gap(instance)).model;
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    exec::set_num_threads(threads);
    const std::uint64_t parallel_calls = counter("exec.parallel_calls");
    // objective 3.3210214638509057
    expect_cold_solve(model,
                      {0x400a9173b3846df3ULL, 371, 369, 0x321f4903c39d3e4aULL});
    if (obs::compiled_in()) {
      EXPECT_GT(counter("exec.parallel_calls"), parallel_calls);
    }
    exec::set_num_threads(0);
  }
}

/// The Thm 5.1 GAP LP (15)-(18) of `qplace solve --algorithm total
/// --topology waxman --nodes <nodes> --seed 1` on `system`.
Model waxman_gap_lp(int nodes, quorum::QuorumSystem system) {
  std::mt19937_64 rng(1);
  const core::QppInstance instance = cli_instance(
      graph::waxman(nodes, 0.9, 0.4, rng).graph, std::move(system));
  return assign::build_gap_lp(core::total_delay_gap(instance)).model;
}

/// Expects `call` to reproduce `pinned` and to have run on the exec pool,
/// at every thread count in `threads`.
template <typename Call>
void expect_pooled_pins(std::initializer_list<int> threads, Call&& call,
                        const ColdSolve& pinned) {
  for (const int count : threads) {
    SCOPED_TRACE(count);
    exec::set_num_threads(count);
    const std::uint64_t parallel_calls = counter("exec.parallel_calls");
    expect_pinned_solve(call, pinned);
    if (obs::compiled_in()) {
      EXPECT_GT(counter("exec.parallel_calls"), parallel_calls);
    }
    exec::set_num_threads(0);
  }
}

// A GAP LP of perfbench large-layout's shape (Waxman n = 512, grid(5),
// 13 337 columns): every pivot runs on column blocks. Pinned as the
// row-by-row elimination left it, at 1, 2 and 8 threads.
TEST(ParallelDeterminism, LargeLayoutGapLpBlockPivotPinned) {
  const Model model = waxman_gap_lp(512, quorum::grid(5));
  // objective 3.323848700334
  expect_pooled_pins({1, 2, 8}, [&] { return solve(model); },
                     {0x400a973dfcc64b07ULL, 375, 373, 0xdb77153eaf989e07ULL});
}

// A majority(5,3) GAP LP: five elements, so a tableau with about as many
// rows as a fifth of its columns, and few pivots. At n = 1024 (6149
// columns) it pivots on blocks; at n = 512 (3077) it stays in one.
TEST(ParallelDeterminism, MajorityGapLpBlockPivotPinned) {
  const Model model = waxman_gap_lp(1024, quorum::majority(5, 3));
  // objective 1.1333634066617446
  expect_pooled_pins({1, 8}, [&] { return solve(model); },
                     {0x3ff22241aae18685ULL, 32, 30, 0xe3ac3a0244398102ULL});
}

// The large-layout GAP LP with stall_threshold = 1: from the first pivot
// that does not improve the objective on, Bland's rule picks the entering
// column instead of the price the block pass returns.
TEST(ParallelDeterminism, BlandGapLpBlockPivotPinned) {
  const Model model = waxman_gap_lp(512, quorum::grid(5));
  SimplexOptions options;
  options.stall_threshold = 1;
  // objective 3.3238487003339965, 8 ulps below Dantzig's path
  expect_pooled_pins({1, 8}, [&] { return solve(model, options); },
                     {0x400a973dfcc64affULL, 367, 365, 0x81e2c917dffa0482ULL});
}

// Phase 1 recorded on column blocks (its etas concatenate the blocks'
// packed pivot-row slices), then phase 2 from that start: together the
// cold solve of GapLpPivotBitIdentical's LP, bit for bit.
TEST(ParallelDeterminism, BlockPivotPhase1StartIsTheColdSolve) {
  const Model model = waxman_gap_lp(256, quorum::grid(5));
  // objective 3.3210214638509057
  expect_pooled_pins(
      {1, 8},
      [&] {
        const Phase1 start = solve_phase1(model);
        return solve(model, {}, &start);
      },
      {0x400a9173b3846df3ULL, 371, 369, 0x321f4903c39d3e4aULL});
}

// The same pins on a hand-built LP with every row build() treats apart: a
// negative-rhs <= row and a negative-rhs >= row (both negated), a variable
// repeated in one row with terms that sum to exactly zero, and an equality.
TEST(Simplex, HandLpColdSolveIsPinned) {
  Model m;
  const int x0 = m.add_variable(1.0);
  const int x1 = m.add_variable(-2.0);
  const int x2 = m.add_variable(0.5);
  const int x3 = m.add_variable(-1.0);
  m.add_constraint({{x0, -1.0}, {x1, -1.0}, {x2, 1.0}}, Relation::kLessEqual,
                   -1.0);
  m.add_constraint({{x1, -1.0}, {x2, -0.5}, {x3, -1.0}},
                   Relation::kGreaterEqual, -4.0);
  m.add_constraint({{x0, -1.0}, {x3, 0.1}, {x1, -0.25}, {x3, -0.1}},
                   Relation::kLessEqual, -0.5);
  m.add_constraint({{x0, 1.0}, {x1, 1.0}, {x2, 1.0}, {x3, 1.0}},
                   Relation::kEqual, 3.0);
  m.add_constraint({{x1, 1.0}, {x3, -0.75}}, Relation::kLessEqual, 1.25);
  // objective -5.0
  expect_cold_solve(m, {0xc014000000000000ULL, 9, 7, 0x1ef988882899989aULL});
}

// Weak duality at the optimum: the duals the simplex returns give back its
// objective, on <=, >= and = rows and on rows build() negates (rhs < 0).
TEST(Simplex, DualsCertifyTheObjectiveOnHandLps) {
  {
    // min -x0 - 2 x1 + x2 on [0,1]^3 with one row of every kind, two of
    // them given with a negative rhs.
    Model m;
    const int x0 = m.add_variable(-1.0);
    const int x1 = m.add_variable(-2.0);
    const int x2 = m.add_variable(1.0);
    for (int x : {x0, x1, x2}) {
      m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
    }
    m.add_constraint({{x0, 1.0}, {x1, 1.0}}, Relation::kLessEqual, 1.5);
    m.add_constraint({{x0, 1.0}, {x2, 1.0}}, Relation::kGreaterEqual, 0.5);
    m.add_constraint({{x1, 1.0}, {x2, -1.0}}, Relation::kEqual, 0.25);
    m.add_constraint({{x0, -1.0}, {x1, -1.0}, {x2, -1.0}},
                     Relation::kLessEqual, -0.5);
    m.add_constraint({{x0, -1.0}, {x1, -2.0}}, Relation::kGreaterEqual, -2.0);
    m.add_constraint({{x1, -1.0}, {x2, 1.0}}, Relation::kEqual, -0.25);
    const Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(dual_bound(m, s.duals), s.objective, 1e-9);
    // The duals already carry the signs dual_bound projects onto.
    for (int i = 0; i < m.num_constraints(); ++i) {
      const double y = s.duals[static_cast<std::size_t>(i)];
      const Relation relation =
          m.constraints()[static_cast<std::size_t>(i)].relation;
      if (relation == Relation::kLessEqual) {
        EXPECT_LE(y, 1e-12) << i;
      } else if (relation == Relation::kGreaterEqual) {
        EXPECT_GE(y, -1e-12) << i;
      }
    }
  }
  {
    // min x s.t. -x <= -0.75, x <= 1: the negated row alone binds, y = -1.
    Model m;
    const int x = m.add_variable(1.0);
    m.add_constraint({{x, -1.0}}, Relation::kLessEqual, -0.75);
    m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
    const Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.duals[0], -1.0, 1e-12);
    EXPECT_NEAR(dual_bound(m, s.duals), 0.75, 1e-9);
  }
  {
    // 2 x 2 transportation problem: every row an equality.
    Model m;
    const double cost[] = {4.0, 6.0, 5.0, 3.0};
    for (double c : cost) m.add_variable(c);
    m.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kEqual, 0.6);
    m.add_constraint({{2, 1.0}, {3, 1.0}}, Relation::kEqual, 0.4);
    m.add_constraint({{0, 1.0}, {2, 1.0}}, Relation::kEqual, 0.5);
    m.add_constraint({{1, 1.0}, {3, 1.0}}, Relation::kEqual, 0.5);
    const Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 0.5 * 4.0 + 0.1 * 6.0 + 0.4 * 3.0, 1e-12);
    EXPECT_NEAR(dual_bound(m, s.duals), s.objective, 1e-9);
  }
}

TEST(Simplex, DualBoundRejectsWrongLength) {
  Model m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  EXPECT_THROW(dual_bound(m, {}), std::invalid_argument);
  EXPECT_THROW(dual_bound(m, {0.0, 0.0}), std::invalid_argument);
}

// The same on every relay LP (9)-(14) of the pinned instance and on its
// Thm 5.1 GAP LP.
TEST(Simplex, DualsCertifyEveryRelayLp) {
  const core::QppInstance instance = pinned_instance();
  for (int source = 0; source < instance.num_nodes(); ++source) {
    SCOPED_TRACE(source);
    const core::SsqppInstance view = core::single_source_view(instance, source);
    const core::FractionalSsqpp relay_lp = core::solve_ssqpp_lp(view);
    ASSERT_EQ(relay_lp.status, SolveStatus::kOptimal);
    const std::optional<core::SsqppLp> named =
        core::build_ssqpp_lp(view, relay_lp.duals.rows);
    ASSERT_TRUE(named.has_value());
    EXPECT_NEAR(dual_bound(named->model, relay_lp.duals.values),
                relay_lp.objective, 1e-9);
  }
  const std::optional<core::TotalDelayResult> total =
      core::solve_total_delay(instance);
  ASSERT_TRUE(total.has_value());
  EXPECT_NEAR(
      dual_bound(assign::build_gap_lp(core::total_delay_gap(instance)).model,
                 total->lp_duals),
      total->lp_objective, 1e-9);
}

// Any y gives a sound bound: scaled, sign-flipped or noisy duals stay below
// Z*, and the corruption shows as a strictly weaker bound.
TEST(Simplex, CorruptDualsOnlyWeakenTheBound) {
  const core::QppInstance instance = pinned_instance();
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> noise(-1e-3, 1e-3);
  for (int source : {0, 7, 13}) {
    SCOPED_TRACE(source);
    const core::SsqppInstance view = core::single_source_view(instance, source);
    const core::FractionalSsqpp relay_lp = core::solve_ssqpp_lp(view);
    ASSERT_EQ(relay_lp.status, SolveStatus::kOptimal);
    const Model model =
        core::build_ssqpp_lp(view, relay_lp.duals.rows).value().model;
    std::vector<double> scaled = relay_lp.duals.values;
    std::vector<double> flipped = relay_lp.duals.values;
    std::vector<double> noisy = relay_lp.duals.values;
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      scaled[i] *= 1.5;
      flipped[i] = -flipped[i];
      noisy[i] += noise(rng);
    }
    bool weaker = false;
    for (const auto* y : {&scaled, &flipped, &noisy}) {
      const double bound = dual_bound(model, *y);
      EXPECT_LE(bound, relay_lp.objective + 1e-12);
      weaker = weaker || bound < relay_lp.objective - 1e-9;
    }
    EXPECT_TRUE(weaker);
  }
}

/// Randomized property check: on random bounded LPs with known feasible box,
/// the simplex optimum must match a brute-force grid-vertex check... instead
/// we verify weak duality via feasibility: the returned point satisfies all
/// constraints and has objective <= any sampled feasible point.
class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, OptimumDominatesSampledFeasiblePoints) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  std::uniform_real_distribution<double> positive(0.5, 2.0);
  const int num_vars = 4;
  const int num_rows = 5;

  Model m;
  std::vector<double> costs;
  for (int v = 0; v < num_vars; ++v) {
    const double c = coeff(rng);
    costs.push_back(c);
    m.add_variable(c);
  }
  // Box constraints keep it bounded; random extra rows keep it interesting.
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (int v = 0; v < num_vars; ++v) {
    m.add_constraint({{v, 1.0}}, Relation::kLessEqual, 3.0);
    std::vector<double> row(num_vars, 0.0);
    row[static_cast<std::size_t>(v)] = 1.0;
    rows.push_back(row);
    rhs.push_back(3.0);
  }
  for (int r = 0; r < num_rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    std::vector<double> row(num_vars);
    for (int v = 0; v < num_vars; ++v) {
      row[static_cast<std::size_t>(v)] = positive(rng);
      terms.emplace_back(v, row[static_cast<std::size_t>(v)]);
    }
    const double b = positive(rng) * 4.0;
    m.add_constraint(std::move(terms), Relation::kLessEqual, b);
    rows.push_back(row);
    rhs.push_back(b);
  }

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // Returned point is feasible.
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double lhs = 0.0;
    for (int v = 0; v < num_vars; ++v) {
      lhs += rows[r][static_cast<std::size_t>(v)] *
             s.values[static_cast<std::size_t>(v)];
    }
    EXPECT_LE(lhs, rhs[r] + 1e-7);
  }
  for (double value : s.values) EXPECT_GE(value, -1e-9);
  // Objective dominates random feasible samples.
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int sample = 0; sample < 200; ++sample) {
    std::vector<double> point(num_vars);
    for (int v = 0; v < num_vars; ++v) {
      point[static_cast<std::size_t>(v)] = unit(rng) * 3.0;
    }
    bool feasible = true;
    for (std::size_t r = 0; r < rows.size() && feasible; ++r) {
      double lhs = 0.0;
      for (int v = 0; v < num_vars; ++v) {
        lhs += rows[r][static_cast<std::size_t>(v)] *
               point[static_cast<std::size_t>(v)];
      }
      feasible = lhs <= rhs[r];
    }
    if (!feasible) continue;
    double objective = 0.0;
    for (int v = 0; v < num_vars; ++v) {
      objective +=
          costs[static_cast<std::size_t>(v)] * point[static_cast<std::size_t>(v)];
    }
    EXPECT_GE(objective, s.objective - 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace qp::lp
