#include "assign/gap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "assign/hungarian.hpp"

namespace qp::assign {
namespace {

GapInstance tiny_instance() {
  // 2 jobs, 2 machines. Machine 0 cheap for job 0, machine 1 cheap for job 1.
  GapInstance g(2, 2);
  g.set_capacity(0, 1.0);
  g.set_capacity(1, 1.0);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      g.set_load(i, j, 1.0);
      g.set_cost(i, j, i == j ? 1.0 : 5.0);
    }
  }
  return g;
}

TEST(GapInstance, ValidatesIndices) {
  GapInstance g(2, 3);
  EXPECT_THROW(g.set_cost(3, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.set_load(0, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(g.set_capacity(1, -1.0), std::invalid_argument);
}

TEST(GapInstance, DefaultPairsForbidden) {
  GapInstance g(1, 1);
  g.set_capacity(0, 10.0);
  EXPECT_FALSE(g.allowed(0, 0));
  g.set_load(0, 0, 2.0);
  EXPECT_TRUE(g.allowed(0, 0));
}

TEST(GapInstance, OverCapacityLoadForbidden) {
  GapInstance g(1, 1);
  g.set_capacity(0, 1.0);
  g.set_load(0, 0, 2.0);
  EXPECT_FALSE(g.allowed(0, 0));
}

TEST(GapLp, DiagonalOptimum) {
  const FractionalGap f = solve_gap_lp(tiny_instance());
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(f.objective, 2.0, 1e-8);
}

TEST(GapLp, InfeasibleWhenTotalLoadExceedsCapacity) {
  GapInstance g(2, 1);
  g.set_capacity(0, 1.0);
  for (int j = 0; j < 2; ++j) {
    g.set_load(0, j, 1.0);
    g.set_cost(0, j, 1.0);
  }
  EXPECT_EQ(solve_gap_lp(g).status, lp::SolveStatus::kInfeasible);
}

TEST(GapRounding, RoundsIntegralFractionalDirectly) {
  const GapInstance g = tiny_instance();
  FractionalGap f;
  f.status = lp::SolveStatus::kOptimal;
  f.y = {1.0, 0.0,   // machine 0 takes job 0
         0.0, 1.0};  // machine 1 takes job 1
  const auto rounded = shmoys_tardos_round(g, f);
  ASSERT_TRUE(rounded.has_value());
  EXPECT_EQ(rounded->job_to_machine, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(rounded->total_cost, 2.0);
}

TEST(GapRounding, RejectsPartialFractional) {
  const GapInstance g = tiny_instance();
  FractionalGap f;
  f.status = lp::SolveStatus::kOptimal;
  f.y = {0.5, 0.0, 0.0, 0.5};  // each job only half-assigned
  EXPECT_FALSE(shmoys_tardos_round(g, f).has_value());
}

TEST(SolveGap, EndToEndRespectsShmoysTardosGuarantees) {
  const auto result = solve_gap(tiny_instance());
  ASSERT_TRUE(result.has_value());
  const FractionalGap f = solve_gap_lp(tiny_instance());
  EXPECT_LE(result->total_cost, f.objective + 1e-7);  // cost <= LP optimum
  // Load <= T_i + pmax_i = 1 + 1.
  for (double load : result->machine_loads) EXPECT_LE(load, 2.0 + 1e-9);
}

TEST(SolveGap, NulloptOnInfeasible) {
  GapInstance g(1, 1);
  g.set_capacity(0, 0.5);
  g.set_load(0, 0, 1.0);  // does not fit anywhere
  EXPECT_FALSE(solve_gap(g).has_value());
}

TEST(GreedyGap, AssignsCheapestFitting) {
  const auto result = greedy_gap(tiny_instance());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->job_to_machine, (std::vector<int>{0, 1}));
}

TEST(GreedyGap, FailsWhenOrderBlocks) {
  // Job 0 greedily takes the only machine that job 1 could use.
  GapInstance g(2, 2);
  g.set_capacity(0, 1.0);
  g.set_capacity(1, 1.0);
  g.set_load(0, 0, 1.0);
  g.set_cost(0, 0, 0.0);
  g.set_load(1, 0, 1.0);
  g.set_cost(1, 0, 1.0);
  g.set_load(0, 1, 1.0);  // job 1 fits only on machine 0
  g.set_cost(0, 1, 0.0);
  const auto result = greedy_gap(g);
  EXPECT_FALSE(result.has_value());
  // The LP-based solver handles it.
  EXPECT_TRUE(solve_gap(g).has_value());
}

/// The weak-duality bound b.y + sum_j min(0, (c - A^T y)_j) over the GAP
/// LP's rows, read straight from (16)-(17) with y projected onto each row's
/// sign by hand: a second description of the rows, independent of the
/// library's generator. Rows: (17) per job, then (16) per machine that
/// allows some job.
double reference_gap_bound(const GapInstance& g, const std::vector<double>& y) {
  const auto cell = [&](int i, int j) {
    return static_cast<std::size_t>(i) *
               static_cast<std::size_t>(g.num_jobs()) +
           static_cast<std::size_t>(j);
  };
  std::vector<double> reduced(cell(g.num_machines(), 0), 0.0);
  for (int i = 0; i < g.num_machines(); ++i) {
    for (int j = 0; j < g.num_jobs(); ++j) reduced[cell(i, j)] = g.cost(i, j);
  }
  double bound = 0.0;
  std::size_t row = 0;
  for (int j = 0; j < g.num_jobs(); ++j, ++row) {  // (17) sum_i y_ij = 1
    const double dual = std::isfinite(y[row]) ? y[row] : 0.0;
    bound += dual;
    for (int i = 0; i < g.num_machines(); ++i) reduced[cell(i, j)] -= dual;
  }
  for (int i = 0; i < g.num_machines(); ++i) {  // (16) sum_j p_ij y_ij <= T_i
    bool any = false;
    for (int j = 0; j < g.num_jobs(); ++j) any = any || g.allowed(i, j);
    if (!any) continue;
    const double dual = std::min(std::isfinite(y[row]) ? y[row] : 0.0, 0.0);
    ++row;
    bound += g.capacity(i) * dual;
    for (int j = 0; j < g.num_jobs(); ++j) {
      if (g.allowed(i, j)) reduced[cell(i, j)] -= g.load(i, j) * dual;
    }
  }
  for (int i = 0; i < g.num_machines(); ++i) {
    for (int j = 0; j < g.num_jobs(); ++j) {
      if (g.allowed(i, j)) bound += std::min(reduced[cell(i, j)], 0.0);
    }
  }
  return bound;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The streamed bound is lp::dual_bound on build_gap_lp's model bit for bit,
// and both agree with the rows read independently, on random instances
// with forbidden and over-budget pairs, jobs that fit nowhere and machines
// that allow no job, for solver duals, random duals of either sign on every
// row, and duals with +-inf and NaN entries; a wrong-length y gives none.
TEST(Gap, StreamedBoundEqualsModelBound) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> dual_dist(-3.0, 3.0);
  int compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int jobs = 1 + trial % 6;
    const int machines = 1 + trial % 5;
    GapInstance g(jobs, machines);
    for (int i = 0; i < machines; ++i) {
      g.set_capacity(i, 0.5 + 2.0 * unit(rng));
      for (int j = 0; j < jobs; ++j) {
        g.set_cost(i, j, 10.0 * unit(rng));
        // Some pairs are forbidden outright, some exceed the budget.
        if (unit(rng) < 0.8) g.set_load(i, j, 0.2 + 2.0 * unit(rng));
      }
    }
    for (int i = 0; i < machines && trial % 4 == 1; ++i) {
      g.set_load(i, 0, kForbidden);  // job 0 fits nowhere
    }
    for (int j = 0; j < jobs && trial % 4 == 2; ++j) {
      g.set_load(0, j, kForbidden);  // machine 0 allows no job
    }
    SCOPED_TRACE(trial);
    const GapLp lp = build_gap_lp(g);
    const int rows = lp.model.num_constraints();
    std::vector<std::vector<double>> duals;
    const FractionalGap solved = solve_gap_lp(g);
    if (solved.status == lp::SolveStatus::kOptimal) {
      duals.push_back(solved.duals);
    }
    std::vector<double> random;
    std::vector<double> non_finite;
    for (int r = 0; r < rows; ++r) {
      random.push_back(dual_dist(rng));
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const double odd[] = {kInf, -kInf,
                            std::numeric_limits<double>::quiet_NaN()};
      non_finite.push_back(r % 3 == 0 ? odd[r / 3 % 3] : dual_dist(rng));
    }
    duals.push_back(random);
    duals.push_back(non_finite);
    for (const std::vector<double>& y : duals) {
      const std::optional<double> streamed = gap_dual_bound(g, y);
      ASSERT_TRUE(streamed.has_value());
      const double expected = lp::dual_bound(lp.model, y);
      EXPECT_TRUE(same_bits(*streamed, expected))
          << *streamed << " vs " << expected;
      const double reference = reference_gap_bound(g, y);
      EXPECT_NEAR(*streamed, reference,
                  1e-9 * std::max(1.0, std::abs(reference)));
      ++compared;
    }
    const std::vector<double> long_y(static_cast<std::size_t>(rows) + 1, 0.0);
    EXPECT_FALSE(gap_dual_bound(g, long_y).has_value());
  }
  EXPECT_GE(compared, 80);
}

/// Property sweep: random GAP instances; whenever the LP is feasible the
/// rounding must deliver cost <= LP and per-machine load <= T_i + pmax_i.
class GapRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(GapRandomProperty, ShmoysTardosBoundsHold) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  std::uniform_real_distribution<double> cost_dist(0.0, 10.0);
  std::uniform_real_distribution<double> load_dist(0.2, 1.0);
  const int jobs = 6;
  const int machines = 4;
  GapInstance g(jobs, machines);
  for (int i = 0; i < machines; ++i) {
    g.set_capacity(i, 1.5);
    for (int j = 0; j < jobs; ++j) {
      g.set_cost(i, j, cost_dist(rng));
      g.set_load(i, j, load_dist(rng));
    }
  }
  const FractionalGap f = solve_gap_lp(g);
  if (f.status != lp::SolveStatus::kOptimal) {
    GTEST_SKIP() << "random instance infeasible";
  }
  const auto rounded = shmoys_tardos_round(g, f);
  ASSERT_TRUE(rounded.has_value());
  EXPECT_LE(rounded->total_cost, f.objective + 1e-6);
  for (int i = 0; i < machines; ++i) {
    double pmax = 0.0;
    for (int j = 0; j < jobs; ++j) {
      if (rounded->job_to_machine[static_cast<std::size_t>(j)] == i) {
        pmax = std::max(pmax, g.load(i, j));
      }
    }
    EXPECT_LE(rounded->machine_loads[static_cast<std::size_t>(i)],
              g.capacity(i) + pmax + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapRandomProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace qp::assign
