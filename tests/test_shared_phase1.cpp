/// Phase 1 of LP (9)-(14) solved once per relay sweep (lp::solve_phase1,
/// core::ssqpp_phase1_start): every solve that starts from the shared
/// phase 1 must equal the cold solve bit for bit, and the sweeps that share
/// it must return what cold solves return.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <tuple>
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

class SharedPhase1Panel
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

// Every relay's seeded model, solved from relay 0's phase 1, equals its cold
// solve: objective, values, duals and iterations, bit for bit; and so does
// solve_ssqpp_lp's result over all its rounds.
TEST_P(SharedPhase1Panel, EveryRelayEqualsItsColdSolve) {
  const auto [name, n] = GetParam();
  const core::QppInstance instance = uniform_instance(system_named(name), n);
  const std::optional<lp::Phase1> start =
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

TEST(SharedPhase1, SolveQppEqualsColdSweep) {
  const core::QppInstance instance = uniform_instance(quorum::grid(3), 20);
  const core::QppSolveOptions options;
  const std::uint64_t reused = counter("lp.phase1_reused");
  const std::optional<core::QppResult> warm =
      core::solve_qpp(instance, options);
  if (obs::compiled_in()) {
    EXPECT_EQ(counter("lp.phase1_reused") - reused, 20u);
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
  const std::optional<lp::Phase1> start = core::ssqpp_phase1_start(
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
