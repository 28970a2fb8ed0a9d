#pragma once

/// \file simplex.hpp
/// Two-phase tableau simplex for qp::lp::Model. Designed for the moderate LP
/// sizes arising from the paper's formulations: a few hundred rows per SSQPP
/// relay LP, which core::solve_ssqpp_lp solves on the rows and ranks its
/// optimum uses, and up to a few thousand for the GAP LP and the full SSQPP
/// model. Robustness over raw speed: Dantzig pricing with a Bland
/// anti-cycling fallback, centralized tolerances. The tableau is stored
/// dense, but a pivot updates only the columns where the scaled pivot row is
/// nonzero (2-4% of them on the SSQPP LPs), which gives bit-for-bit the
/// pivots and values of the full dense row update. An optimal solve also
/// returns the row duals, so a caller can certify its objective with
/// lp::dual_bound without trusting the solver.

#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace qp::lp {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

std::string to_string(SolveStatus status);

struct SimplexOptions {
  double epsilon = 1e-9;          ///< reduced-cost / pivot tolerance
  std::int64_t max_iterations = 200000;
  /// Switch from Dantzig to Bland's rule after this many consecutive
  /// iterations without objective improvement (anti-cycling).
  int stall_threshold = 64;
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;     ///< per-variable values when kOptimal
  /// Per-row duals y when kOptimal, in the sign convention of dual_bound
  /// (y_i <= 0 on <= rows, >= 0 on >= rows), read off the final phase-2
  /// reduced costs of each row's slack or artificial column.
  std::vector<double> duals;
  std::int64_t iterations = 0;
};

/// Solves min c.x subject to the model's rows and x >= 0.
Solution solve(const Model& model, const SimplexOptions& options = {});

}  // namespace qp::lp
