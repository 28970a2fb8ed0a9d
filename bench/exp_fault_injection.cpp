/// Experiment E16 -- delay vs availability under fault churn
/// (docs/SIMULATION.md).
///
/// The paper optimizes access delay assuming every probe succeeds. This
/// experiment measures what each placement style gives up when nodes
/// crash: the fault-aware simulator sweeps a seeded churn generator from
/// calm to hostile and reports, for every (placement, intensity) cell,
/// the mean delay of completed accesses and the fraction that completed
/// at all (availability).
///
/// Contenders on one instance (majority(5) on a 16-node Waxman graph):
///   - qpp:    the Thm 1.2 solver's placement (delay-optimized);
///   - search: local-search descent from a feasible start;
///   - random: a random feasible placement (load-oblivious baseline);
///   - lin:    Lin's single-point design (Sec 2 strawman) -- one replica
///             at the 1-median, fault tolerance zero by construction.
///
/// Sanity gates (exit non-zero on violation):
///   (a) with no faults every contender has availability exactly 1 and
///       zero retries;
///   (b) every availability lies in [0, 1];
///   (c) re-selection never observes a safety violation (the families are
///       intersecting);
///   (d) at the highest churn the replicated placements stay available
///       for at least some accesses (majority(5) needs 12 of 16 nodes
///       down before every quorum dies).

#include <algorithm>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/design_baselines.hpp"
#include "core/evaluators.hpp"
#include "core/local_search.hpp"
#include "core/qpp_solver.hpp"
#include "graph/generators.hpp"
#include "quorum/constructions.hpp"
#include "report/table.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qp;

struct Contender {
  std::string name;
  core::QppInstance instance;  // lin uses its own single-point system
  core::Placement placement;
};

struct Cell {
  sim::SimulationResult result;
};

double max_distance(const graph::Metric& metric) {
  double worst = 0.0;
  for (int i = 0; i < metric.num_points(); ++i) {
    for (int j = 0; j < metric.num_points(); ++j) {
      worst = std::max(worst, metric(i, j));
    }
  }
  return worst;
}

}  // namespace

int main() {
  bool violated = false;
  const int kNodes = 16;
  const double kDuration = 400.0;

  std::mt19937_64 topology_rng(11);
  const graph::Metric metric = graph::Metric::from_graph(
      graph::waxman(kNodes, 0.9, 0.4, topology_rng).graph);
  const quorum::QuorumSystem system = quorum::majority(5);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const core::QppInstance instance(
      metric, std::vector<double>(static_cast<std::size_t>(kNodes), 1.0),
      system, strategy);

  std::vector<Contender> contenders;
  {
    core::QppSolveOptions options;
    options.alpha = 2.0;
    const auto solved = core::solve_qpp(instance, options);
    if (!solved) {
      std::cerr << "qpp solver infeasible on the E16 instance\n";
      return 1;
    }
    contenders.push_back({"qpp", instance, solved->placement});
  }
  {
    std::mt19937_64 rng(23);
    const auto start = core::random_feasible_placement(instance, rng);
    if (!start) {
      std::cerr << "no random feasible placement on the E16 instance\n";
      return 1;
    }
    contenders.push_back({"random", instance, *start});
    const core::LocalSearchResult descended =
        core::local_search_max_delay(instance, *start, {});
    contenders.push_back({"search", instance, descended.placement});
  }
  {
    const core::SinglePointDesign lin = core::lin_single_point_design(metric);
    core::QppInstance single(
        metric, std::vector<double>(static_cast<std::size_t>(kNodes), 1.0),
        lin.system, lin.strategy);
    contenders.push_back({"lin", std::move(single), lin.placement});
  }

  // Attempt deadline safely above the worst fault-free round trip, so only
  // injected faults can trip it.
  const double timeout = 2.0 * max_distance(metric) + 1.0;
  const std::vector<double> crash_rates = {0.0, 0.5, 1.0, 2.0, 4.0};

  report::banner(std::cout,
                 "E16: delay vs availability under crash churn "
                 "(majority(5) on waxman16, seeded schedules)");
  report::Table table({"placement", "crash rate", "mean delay",
                       "availability", "retries", "unavailable"});
  std::vector<std::vector<Cell>> grid(contenders.size());
  for (std::size_t c = 0; c < contenders.size(); ++c) {
    for (double rate : crash_rates) {
      sim::RandomFaultOptions churn;
      churn.crash_rate = rate;
      churn.mean_downtime = 60.0;
      const sim::FaultSchedule schedule =
          sim::random_fault_schedule(kNodes, kDuration, churn, /*seed=*/7);

      sim::SimulationConfig config;
      config.duration = kDuration;
      config.seed = 101;
      config.probe_timeout = timeout;
      config.max_attempts = 3;
      if (!schedule.empty()) config.faults = &schedule;
      const sim::SimulationResult result = sim::simulate(
          contenders[c].instance, contenders[c].placement, config);

      table.add_row({contenders[c].name, report::Table::num(rate, 1),
                     report::Table::num(result.overall_mean_delay, 4),
                     report::Table::num(result.availability, 4),
                     std::to_string(result.retries),
                     std::to_string(result.unavailable_accesses)});
      grid[c].push_back({result});
    }
  }
  table.print(std::cout);

  for (std::size_t c = 0; c < contenders.size(); ++c) {
    const sim::SimulationResult& calm = grid[c].front().result;
    if (calm.availability != 1.0 || calm.retries != 0) {
      std::cerr << "VIOLATION: " << contenders[c].name
                << " not perfectly available without faults\n";
      violated = true;
    }
    for (const Cell& cell : grid[c]) {
      if (cell.result.availability < 0.0 || cell.result.availability > 1.0) {
        std::cerr << "VIOLATION: availability outside [0,1] for "
                  << contenders[c].name << "\n";
        violated = true;
      }
      if (!cell.result.safety_ok) {
        std::cerr << "VIOLATION: intersecting family lost safety for "
                  << contenders[c].name << "\n";
        violated = true;
      }
    }
    if (contenders[c].name != "lin" &&
        grid[c].back().result.completed_accesses == 0) {
      std::cerr << "VIOLATION: replicated placement "
                << contenders[c].name
                << " completed nothing at peak churn\n";
      violated = true;
    }
  }

  std::cout << (violated ? "\nE16 FAILED: sanity gate violated\n"
                         : "\nE16 OK: availability degrades with churn, "
                           "safety and calm-run gates hold\n");
  return violated ? 1 : 0;
}
