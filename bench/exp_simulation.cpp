/// Experiment E9 -- message-level validation of the paper's delay model.
///
/// The analytic quantities Delta_f(v) (eq. 2), Gamma_f(v) (Sec 5) and
/// load_f(v) (Sec 1.2) are compared against a discrete-event simulation of
/// Poisson clients probing placed quorums over the network:
///   (a) with free service, simulated mean delays must match the formulas
///       within sampling error (parallel ~ max-delay, sequential ~ total);
///   (b) node probe shares must match load_f(v);
///   (c) with finite per-node service rates, placements that overshoot
///       capacity (larger alpha) pay measurable queueing delay -- the
///       physical reading of the paper's load constraint.
/// Exits non-zero if (a) or (b) disagree beyond tolerance.

#include <cmath>
#include <iostream>
#include <random>
#include <vector>

#include "core/evaluators.hpp"
#include "core/qpp_solver.hpp"
#include "graph/generators.hpp"
#include "quorum/constructions.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"

namespace {
using namespace qp;
}

int main() {
  bool violated = false;

  report::banner(std::cout,
                 "E9a: simulated vs analytic delay (free service, 4000s "
                 "horizon)");
  {
    report::Table table({"system", "mode", "analytic", "simulated",
                         "rel.err"});
    struct Case {
      const char* name;
      quorum::QuorumSystem system;
    };
    std::vector<Case> cases;
    cases.push_back({"grid3", quorum::grid(3)});
    cases.push_back({"majority5", quorum::majority(5)});
    cases.push_back({"fpp2", quorum::projective_plane(2)});
    for (const Case& c : cases) {
      std::mt19937_64 rng(11);
      const graph::Metric metric = graph::Metric::from_graph(
          graph::waxman(16, 0.9, 0.4, rng).graph);
      const quorum::AccessStrategy strategy =
          quorum::AccessStrategy::uniform(c.system);
      core::QppInstance instance(metric, std::vector<double>(16, 1e9),
                                 c.system, strategy);
      std::uniform_int_distribution<int> pick(0, 15);
      core::Placement f(
          static_cast<std::size_t>(c.system.universe_size()));
      for (int& v : f) v = pick(rng);

      for (const sim::AccessMode mode :
           {sim::AccessMode::kParallel, sim::AccessMode::kSequential}) {
        sim::SimulationConfig config;
        config.duration = 4000.0;
        config.mode = mode;
        config.seed = 101;
        const sim::SimulationResult result =
            sim::simulate(instance, f, config);
        const double analytic = mode == sim::AccessMode::kParallel
                                    ? core::average_max_delay(instance, f)
                                    : core::average_total_delay(instance, f);
        const double rel =
            std::abs(result.overall_mean_delay - analytic) / analytic;
        violated = violated || rel > 0.05;
        table.add_row({c.name,
                       mode == sim::AccessMode::kParallel ? "parallel"
                                                          : "sequential",
                       report::Table::num(analytic, 4),
                       report::Table::num(result.overall_mean_delay, 4),
                       report::Table::num(rel, 4)});
      }
    }
    table.print(std::cout);
  }

  report::banner(std::cout, "E9b: simulated probe share vs load_f(v)");
  {
    std::mt19937_64 rng(7);
    const graph::Metric metric = graph::Metric::from_graph(
        graph::ring_of_cliques(3, 4, 1.0, 10.0));
    const quorum::QuorumSystem system = quorum::grid(2);
    core::QppInstance instance(
        metric, std::vector<double>(12, 1e9), system,
        quorum::AccessStrategy::uniform(system));
    const core::Placement f = {0, 0, 4, 8};  // two elements stacked on node 0
    sim::SimulationConfig config;
    config.duration = 3000.0;
    config.seed = 13;
    const sim::SimulationResult result = sim::simulate(instance, f, config);
    const std::vector<double> loads =
        core::node_loads(instance.element_loads(), f, 12);
    report::Table table({"node", "load_f(v)", "simulated share", "|diff|"});
    for (int v = 0; v < 12; ++v) {
      if (loads[static_cast<std::size_t>(v)] == 0.0 &&
          result.per_node_access_share[static_cast<std::size_t>(v)] == 0.0) {
        continue;
      }
      const double diff =
          std::abs(loads[static_cast<std::size_t>(v)] -
                   result.per_node_access_share[static_cast<std::size_t>(v)]);
      violated = violated || diff > 0.03;
      table.add_row(
          {std::to_string(v),
           report::Table::num(loads[static_cast<std::size_t>(v)], 4),
           report::Table::num(
               result.per_node_access_share[static_cast<std::size_t>(v)], 4),
           report::Table::num(diff, 4)});
    }
    table.print(std::cout);
  }

  report::banner(std::cout,
                 "E9c: queueing cost of capacity overshoot (finite service "
                 "rate; informational)");
  {
    // A placement that respects capacity vs one that stacks load: under a
    // service rate sized to the *capacity*, the overshooting placement
    // queues. This is the physical motivation for constraint (1.1b).
    std::mt19937_64 rng(3);
    const graph::Metric metric = graph::Metric::from_graph(
        graph::random_geometric(10, 0.5, rng).graph);
    const quorum::QuorumSystem system = quorum::grid(2);
    core::QppInstance instance(
        metric, std::vector<double>(10, 1e9), system,
        quorum::AccessStrategy::uniform(system));
    const core::Placement spread = {0, 3, 6, 9};
    const core::Placement stacked = {0, 0, 0, 0};

    report::Table table({"placement", "analytic delay", "sim (rate 12/s)",
                         "sim (rate 5/s)"});
    for (const auto& [name, f] :
         std::vector<std::pair<const char*, core::Placement>>{
             {"spread (respects cap)", spread},
             {"stacked (violates cap)", stacked}}) {
      sim::SimulationConfig base;
      base.duration = 1500.0;
      base.seed = 29;
      sim::SimulationConfig medium = base;
      medium.service_rate = 12.0;
      sim::SimulationConfig low = base;
      low.service_rate = 5.0;
      table.add_row(
          {name,
           report::Table::num(core::average_max_delay(instance, f), 3),
           report::Table::num(
               sim::simulate(instance, f, medium).overall_mean_delay, 3),
           report::Table::num(
               sim::simulate(instance, f, low).overall_mean_delay, 3)});
    }
    table.print(std::cout);
    std::cout << "Offered probe load is 10 accesses/s x 3 probes = 30/s; "
                 "stacked places all of it\non one node, so rates below 30/s "
                 "saturate it while the spread placement\nstays near the "
                 "analytic value.\n";
  }

  std::cout << (violated ? "\nRESULT: SIMULATION DISAGREES WITH THE MODEL\n"
                         : "\nRESULT: simulation reproduces the analytic "
                           "delay and load model.\n");
  return violated ? 1 : 0;
}
