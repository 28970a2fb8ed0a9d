#pragma once

/// \file qpp_solver.hpp
/// The paper's main algorithm (Thm 1.2): for each candidate relay node v0,
/// solve the Single-Source QPP approximately (Thm 3.7) and keep the
/// placement with the best full-QPP average max-delay. By Thm 3.3 the result
/// is a 5 * alpha/(alpha-1) approximation with load <= (alpha+1) * cap.

#include <optional>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/ssqpp_solver.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace qp::core {

/// One relay of the sweep: its LP (9)-(14) value and the row duals the
/// simplex ended with, from which check_certificate derives a bound on
/// Z*(source) without re-solving.
struct RelayLp {
  int source = -1;
  double objective = 0.0;     ///< Z*(source)
  std::vector<double> duals;  ///< SsqppResult::lp_duals of that relay
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

/// relay_sweep's candidates, in order: options.candidate_sources; else the
/// options.max_candidates nodes of least total distance to all clients
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
                               const QppSolveOptions& options, Solve&& solve,
                               Score&& score) {
  using Outcome = typename RelaySweep<Result>::Outcome;
  const std::vector<int> candidates = relay_candidates(instance, options);
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

}  // namespace qp::core
