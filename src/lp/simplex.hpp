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
/// pivots and values of the full dense row update. The tableau is dense in
/// address space and resident only where it has held a nonzero: it comes
/// zeroed from std::calloc, and neither building it nor pivoting writes a
/// zero where the dense update did not need one, so pages that never hold a
/// nonzero are never backed by memory (most of the Thm 5.1 GAP LP's). An
/// optimal solve also returns the row duals, so a caller can certify its
/// objective with lp::dual_bound without trusting the solver.
///
/// Phase 1 reads the rows and never the objective, so models that share
/// their rows and differ in the objective share phase 1 (the relay LPs of a
/// Thm 1.2 sweep on uniform capacities do). solve_phase1 runs it once and
/// keeps the resulting tableau, stored sparse, with the eta file of its
/// pivots; lp::solve given that start replays the etas on its own cost row
/// and runs only phase 2, without a tableau of its own: it rebuilds the one
/// column and one row each iteration reads from the start's tableau and the
/// etas of its own pivots. Both repeat the cold solve's floating-point
/// operations in order, so the result is the cold solve's bit for bit.

#include <cstdint>
#include <memory>
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

  bool operator==(const SimplexOptions&) const = default;
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

class Phase1;

/// Runs phase 1 of `model` (minimize the sum of artificials, then drive the
/// artificials out of the basis) and keeps what phase 2 of any model with
/// the same rows starts from.
Phase1 solve_phase1(const Model& model, const SimplexOptions& options = {});

/// Solves min c.x subject to the model's rows and x >= 0: phase 1, then
/// phase 2. With a `start` whose rows (terms, relations, rhs, bit for bit),
/// variable count and options equal the model's, phase 1 is taken from it
/// instead; the Solution, iterations included, is that of the cold solve.
/// Any other start is ignored.
Solution solve(const Model& model, const SimplexOptions& options = {},
               const Phase1* start = nullptr);

/// The state after phase 1 of a model, as solve_phase1 leaves it: status and
/// iteration count, the final tableau (its nonzeros by row and by column)
/// and basis, the eta file of its pivots and, for the equality check, the
/// model's rows. Immutable, so any number of threads may solve from it at
/// once; a solve from it reads the tableau in place.
class Phase1 {
 public:
  struct State;  ///< defined in simplex.cpp

  /// kOptimal when phase 1 reached a feasible basis; kInfeasible or
  /// kIterationLimit when it ended there, which a solve from this start
  /// then returns, as the cold solve would.
  SolveStatus status() const;
  /// Iterations of phase 1; a solve from this start continues from them.
  std::int64_t iterations() const;

 private:
  Phase1() = default;
  friend Phase1 solve_phase1(const Model&, const SimplexOptions&);
  friend Solution solve(const Model&, const SimplexOptions&, const Phase1*);

  std::shared_ptr<const State> state_;
};

}  // namespace qp::lp
