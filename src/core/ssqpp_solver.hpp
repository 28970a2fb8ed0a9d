#pragma once

/// \file ssqpp_solver.hpp
/// The paper's approximation algorithm for the Single-Source Quorum
/// Placement Problem (Thm 3.7 / 3.12): solve LP (9)-(14), alpha-filter the
/// fractional solution (Sec 3.3.1), view it as a fractional GAP solution and
/// round with Shmoys-Tardos. Guarantees, for any alpha > 1:
///   Delta_f(v0) <= (alpha / (alpha - 1)) * Z*  <= (alpha/(alpha-1)) * OPT,
///   load_f(v)   <= (alpha + 1) * cap(v).

#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/ssqpp_lp.hpp"

namespace qp::core {

struct SsqppResult {
  Placement placement;
  double lp_objective = 0.0;     ///< Z*, a lower bound on OPT
  std::vector<double> lp_duals;  ///< LP (9)-(14) row duals (FractionalSsqpp)
  double delay = 0.0;            ///< achieved Delta_f(v0)
  double delay_bound = 0.0;      ///< (alpha/(alpha-1)) * Z*
  double load_violation = 0.0;   ///< max_v load_f(v)/cap(v); bound: alpha + 1
};

/// Runs the Thm 3.7 pipeline. Returns std::nullopt when the LP itself is
/// infeasible (no capacity-respecting fractional placement exists).
/// \throws std::invalid_argument unless alpha > 1.
std::optional<SsqppResult> solve_ssqpp(const SsqppInstance& instance,
                                       double alpha = 2.0,
                                       const lp::SimplexOptions& options = {});

/// Rounding stage only: converts an alpha-filtered fractional solution into
/// a placement via GAP (machines = nodes, jobs = elements, budgets
/// T_t = alpha * cap(v_t)). Exposed separately for tests and ablations.
std::optional<Placement> round_filtered_ssqpp(const SsqppInstance& instance,
                                              const FractionalSsqpp& filtered,
                                              double alpha);

/// Baseline for ablation benches: place every element greedily on the
/// nearest node (by d(v0, .)) with remaining capacity; no delay guarantee.
std::optional<Placement> greedy_nearest_placement(const SsqppInstance& instance);

}  // namespace qp::core
