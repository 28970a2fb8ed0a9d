#pragma once

/// \file qpp_solver.hpp
/// The paper's main algorithm (Thm 1.2): for each candidate relay node v0,
/// solve the Single-Source QPP approximately (Thm 3.7) and keep the
/// placement with the best full-QPP average max-delay. By Thm 3.3 the result
/// is a 5 * alpha/(alpha-1) approximation with load <= (alpha+1) * cap.

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/instance.hpp"
#include "core/ssqpp_solver.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace qp::core {

/// One relay of the sweep: its LP (9)-(14) value and the row duals the
/// simplex ended with, named by full-model row, from which
/// check_certificate derives a bound on Z*(source) without re-solving.
struct RelayLp {
  int source = -1;
  double objective = 0.0;     ///< Z*(source)
  SsqppDuals duals;       ///< SsqppResult::lp_duals of that relay
};

struct QppResult {
  Placement placement;
  int chosen_source = -1;        ///< the v0 whose SSQPP solution won
  double average_delay = 0.0;    ///< Avg_v Delta_f(v) of the placement
  double load_violation = 0.0;   ///< max_v load_f(v)/cap(v); bound: alpha + 1
  double best_lp_bound = 0.0;    ///< max over tried v0 of Z*(v0): each Z*(v0)
                                 ///< lower-bounds Delta_{f*}(v0) for that v0
  std::vector<RelayLp> relay_lps;  ///< per feasible relay, candidate order
};

struct QppSolveOptions {
  double alpha = 2.0;
  /// Candidate relay nodes to try; empty = all nodes (the paper's choice --
  /// "we can run the SSQPP algorithm with each node in V").
  std::vector<int> candidate_sources;
  /// When positive, try only this many nodes in 1-median order, a speed knob
  /// (relay_candidates; the 5 beta guarantee needs all nodes; cf. E10a).
  int max_candidates = 0;
  lp::SimplexOptions simplex;
};

/// Thm 1.2 solver. Returns std::nullopt if no candidate source admits a
/// fractional capacity-respecting placement.
std::optional<QppResult> solve_qpp(const QppInstance& instance,
                                   const QppSolveOptions& options = {});

/// Helper: the single-source instance induced by a QPP instance and a
/// candidate relay node (the access strategy p0 is the instance strategy;
/// see paper Sec 6 for the per-client-strategy generalization).
SsqppInstance single_source_view(const QppInstance& instance, int source);

/// The relay sweep's candidates, in order: options.candidate_sources; else
/// the options.max_candidates nodes of least total distance to all clients
/// (1-median order, ties by node id) when that is below n; else all nodes.
std::vector<int> relay_candidates(const QppInstance& instance,
                                  const QppSolveOptions& options);

template <typename Result>
struct RelaySweep {
  struct Outcome {
    int source = -1;
    double objective = 0.0;  ///< full objective of solution's placement
    Result solution;
  };
  std::vector<Outcome> feasible;      ///< in candidate order
  std::optional<std::size_t> winner;  ///< index into feasible; nullopt if empty
};

/// The Thm 3.3 relay sweep of solve_qpp, solve_qpp_{grid,majority,multi}:
/// per candidate, on the exec pool, `solve(single_source_view(instance, v0))`
/// gives a std::optional<Result> and `score(solution)` its full objective.
/// The winner, the first strict minimum in candidate order, is picked
/// sequentially, so the sweep is bit-identical at any thread count.
template <typename Result, typename Solve, typename Score>
RelaySweep<Result> relay_sweep(const QppInstance& instance,
                               const std::vector<int>& candidates,
                               Solve&& solve, Score&& score) {
  using Outcome = typename RelaySweep<Result>::Outcome;
  QP_SPAN("qpp.relay_sweep");
  QP_COUNTER_ADD("qpp.relay_candidates", candidates.size());
  std::vector<std::optional<Outcome>> slots(candidates.size());
  exec::parallel_for(candidates.size(), [&](std::size_t i) {
    if (auto solution = solve(single_source_view(instance, candidates[i]))) {
      slots[i] = Outcome{candidates[i], score(*solution), std::move(*solution)};
    }
  });
  RelaySweep<Result> sweep;
  for (auto& slot : slots) {
    if (!slot) continue;
    QP_COUNTER_ADD("qpp.relay_feasible", 1);  // sequential: fixed tally order
    if (!sweep.winner ||
        slot->objective < sweep.feasible[*sweep.winner].objective) {
      sweep.winner = sweep.feasible.size();
    }
    sweep.feasible.push_back(std::move(*slot));
  }
  return sweep;
}

/// relay_sweep of solve_ssqpp (options.alpha, options.simplex) over
/// relay_candidates(instance, options), as solve_qpp and solve_qpp_multi
/// run it. The instance, its metric included, is validated once here; each
/// relay checks only what its view adds (solve_ssqpp_view). On uniform
/// capacities every relay's seeded LP (9)-(14) has the same rows, so the
/// first candidate's seed (its seeded model and phase 1 of it,
/// ssqpp_phase1_start) is built once, on this thread before the sweep, and
/// every relay's first model shares the seed's rows and starts from its
/// phase 1; the seed is freed when the sweep returns. Other capacities solve
/// every relay cold.
/// Either way the results are those of cold solves, and the work counters
/// do not depend on the pool size.
template <typename Score>
RelaySweep<SsqppResult> ssqpp_relay_sweep(const QppInstance& instance,
                                          const QppSolveOptions& options,
                                          Score&& score) {
  QP_REQUIRE(check::validate_instance(instance).ok(),
             "QPP instance violates its data contracts (metric / strategy / "
             "capacities); see check::validate_instance");
  const std::vector<int> candidates = relay_candidates(instance, options);
  const std::vector<double>& caps = instance.capacities();
  const bool uniform =
      std::ranges::adjacent_find(caps, std::ranges::not_equal_to{}) ==
      caps.end();
  const std::optional<SsqppSeed> seed =
      uniform && !candidates.empty()
          ? ssqpp_phase1_start(single_source_view(instance, candidates.front()),
                               options.simplex)
          : std::nullopt;
  return relay_sweep<SsqppResult>(
      instance, candidates,
      [&](const SsqppInstance& view) {
        return solve_ssqpp_view(view, options.alpha, options.simplex,
                                seed ? &*seed : nullptr);
      },
      std::forward<Score>(score));
}

}  // namespace qp::core
