#pragma once

/// \file multi_strategy.hpp
/// The paper's Sec 6 generalization: every client v has its own access
/// strategy p_v. The structural Lemma 3.1 survives (with v0 the argmin of
/// each client's own expected delay), and Theorem 1.2 carries over by
/// solving the single-source problem under the rate-weighted average
/// strategy p-bar (the mix of quorums that actually arrives at the relay).

#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/qpp_solver.hpp"

namespace qp::core {

/// Per-client strategies, indexed by client/node id. All entries must be
/// over the same quorum system.
using PerClientStrategies = std::vector<quorum::AccessStrategy>;

/// Avg_v w_v Delta_{p_v}(v): the multi-strategy average max-delay
/// (objective of the Sec 6 formulation).
/// \throws std::invalid_argument if strategies.size() != num points or any
///         strategy's arity mismatches the system.
double average_max_delay_multi(const graph::Metric& metric,
                               const quorum::QuorumSystem& system,
                               const PerClientStrategies& strategies,
                               const std::vector<double>& client_weights,
                               const Placement& placement);

/// The relay node of the generalized Lemma 3.1: argmin_v Delta_{p_v}(v).
int best_relay_node_multi(const graph::Metric& metric,
                          const quorum::QuorumSystem& system,
                          const PerClientStrategies& strategies,
                          const Placement& placement);

/// Average relay delay when every client routes via `relay` but still draws
/// quorums from its own strategy:
///   Avg_v w_v sum_Q p_v(Q) (d(v, relay) + delta_f(relay, Q)).
/// Guaranteed <= 5 * average_max_delay_multi at the Lemma 3.1 relay node.
double relay_delay_multi(const graph::Metric& metric,
                         const quorum::QuorumSystem& system,
                         const PerClientStrategies& strategies,
                         const std::vector<double>& client_weights,
                         const Placement& placement, int relay);

/// The rate-weighted average strategy p-bar(Q) = sum_v w_v p_v(Q) -- the
/// quorum mix the relay node forwards (paper Sec 6).
quorum::AccessStrategy average_strategy(const quorum::QuorumSystem& system,
                                        const PerClientStrategies& strategies,
                                        const std::vector<double>& client_weights);

struct MultiStrategyQppResult {
  Placement placement;
  int chosen_source = -1;
  double average_delay = 0.0;   ///< multi-strategy objective of the placement
  double load_violation = 0.0;  ///< vs capacities, under p-bar loads
};

/// Thm 1.2 for per-client strategies: solve_qpp's relay sweep (same options)
/// under the averaged strategy, whose element loads are the true expected
/// loads, scoring candidates by the true multi-strategy objective.
/// \throws std::invalid_argument on arity mismatches (weights must have one
///         entry per node; they are normalized internally).
std::optional<MultiStrategyQppResult> solve_qpp_multi(
    const graph::Metric& metric, const std::vector<double>& capacities,
    const quorum::QuorumSystem& system, const PerClientStrategies& strategies,
    const std::vector<double>& client_weights,
    const QppSolveOptions& options = {});

}  // namespace qp::core
