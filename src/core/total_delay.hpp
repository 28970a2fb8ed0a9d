#pragma once

/// \file total_delay.hpp
/// The total-delay Quorum Placement Problem (paper Sec 5, Thm 5.1 / 1.4).
/// Because Gamma_f(v) = sum_u load(u) d(v, f(u)) separates per element, the
/// problem maps directly to GAP with cost
///   c_{vu} = load(u) * (weighted) average distance from clients to v,
/// load p_{vu} = load(u) and budget T_v = cap(v). Shmoys-Tardos rounding
/// yields Avg_v Gamma_f(v) <= OPT with load_f(v) <= 2 cap(v).

#include <optional>
#include <vector>

#include "assign/gap.hpp"
#include "core/instance.hpp"

namespace qp::core {

struct TotalDelayResult {
  Placement placement;
  double average_delay = 0.0;    ///< achieved Avg_v Gamma_f(v)
  double lp_objective = 0.0;     ///< GAP LP optimum, lower bound on the
                                 ///< capacity-feasible OPT
  double load_violation = 0.0;   ///< max_v load_f(v)/cap(v); bound: 2
  std::vector<double> lp_duals;  ///< GAP LP row duals (assign::FractionalGap)
};

/// The GAP instance of Sec 5 for a QPP instance; solve_total_delay solves
/// its LP, and the certificate bounds that LP from the result's duals.
assign::GapInstance total_delay_gap(const QppInstance& instance);

/// Thm 5.1 solver. Returns std::nullopt when even the fractional relaxation
/// is infeasible (total element load exceeds total capacity, or some element
/// fits nowhere).
std::optional<TotalDelayResult> solve_total_delay(const QppInstance& instance);

}  // namespace qp::core
