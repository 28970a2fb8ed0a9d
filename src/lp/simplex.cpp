#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "check/contracts.hpp"
#include "obs/obs.hpp"

namespace qp::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

/// Dense two-phase tableau. Row-major matrix `a` of size rows x cols, the
/// right-hand side `b`, and two running cost rows (phase 1 and phase 2),
/// each of length cols + 1 with the final entry holding -objective.
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& options)
      : options_(options),
        num_structural_(model.num_variables()),
        rows_(model.num_constraints()) {
    build(model);
  }

  /// Basis changes performed, including drive_out_artificials() pivots (so
  /// it can exceed the iteration count on degenerate phase-1 exits).
  std::int64_t pivots() const { return pivots_; }

  Solution run() {
    Solution solution;
    // Phase 1: minimize the sum of artificial variables.
    if (num_artificial_ > 0) {
      const SolveStatus phase1 = iterate(cost1_, /*allow_artificial=*/true,
                                         solution.iterations);
      if (phase1 == SolveStatus::kIterationLimit) {
        solution.status = phase1;
        return solution;
      }
      // Unbounded is impossible in phase 1 (objective bounded below by 0).
      const double infeasibility = -cost1_[static_cast<std::size_t>(cols_)];
      if (infeasibility > options_.epsilon * (1.0 + rhs_scale_)) {
        solution.status = SolveStatus::kInfeasible;
        return solution;
      }
      in_phase1_ = false;
      drive_out_artificials();
    }
    // Phase 2: minimize the true objective, artificials barred from entering.
    const SolveStatus phase2 = iterate(cost2_, /*allow_artificial=*/false,
                                       solution.iterations);
    solution.status = phase2;
    if (phase2 != SolveStatus::kOptimal) return solution;
    solution.objective = -cost2_[static_cast<std::size_t>(cols_)];
    solution.values.assign(static_cast<std::size_t>(num_structural_), 0.0);
    for (int i = 0; i < rows_; ++i) {
      const int bv = basis_[static_cast<std::size_t>(i)];
      if (bv < num_structural_) {
        solution.values[static_cast<std::size_t>(bv)] =
            std::max(0.0, b_[static_cast<std::size_t>(i)]);
      }
    }
    return solution;
  }

 private:
  double* row(int r) {
    return &a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_)];
  }
  double at(int r, int c) const {
    return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(c)];
  }

  void build(const Model& model) {
    const auto& constraints = model.constraints();
    // First pass: normalize each row to rhs >= 0 and count the slack and
    // artificial columns, so the tableau can be allocated once.
    std::vector<Relation> relation(static_cast<std::size_t>(rows_));
    b_.assign(static_cast<std::size_t>(rows_), 0.0);
    int num_slack = 0;
    num_artificial_ = 0;
    for (int i = 0; i < rows_; ++i) {
      const Constraint& c = constraints[static_cast<std::size_t>(i)];
      Relation rel = c.relation;
      if (c.rhs < 0.0) {
        if (rel == Relation::kLessEqual) {
          rel = Relation::kGreaterEqual;
        } else if (rel == Relation::kGreaterEqual) {
          rel = Relation::kLessEqual;
        }
      }
      const double rhs = c.rhs < 0.0 ? -c.rhs : c.rhs;
      b_[static_cast<std::size_t>(i)] = rhs;
      relation[static_cast<std::size_t>(i)] = rel;
      rhs_scale_ = std::max(rhs_scale_, rhs);
      if (rel != Relation::kEqual) ++num_slack;
      if (rel != Relation::kLessEqual) ++num_artificial_;
    }

    first_artificial_ = num_structural_ + num_slack;
    cols_ = first_artificial_ + num_artificial_;
    a_.assign(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_),
              0.0);
    nonzero_.resize(static_cast<std::size_t>(cols_));
    basis_.assign(static_cast<std::size_t>(rows_), -1);

    // Second pass: sum each row's terms straight into the tableau (negated
    // where the rhs was), then add its slack and artificial columns.
    int next_slack = num_structural_;
    int next_artificial = first_artificial_;
    for (int i = 0; i < rows_; ++i) {
      const Constraint& c = constraints[static_cast<std::size_t>(i)];
      double* row_data = row(i);
      for (const auto& [var, coeff] : c.terms) row_data[var] += coeff;
      if (c.rhs < 0.0) {
        for (int j = 0; j < num_structural_; ++j) row_data[j] = -row_data[j];
      }
      switch (relation[static_cast<std::size_t>(i)]) {
        case Relation::kLessEqual:
          row_data[next_slack] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_slack++;
          break;
        case Relation::kGreaterEqual:
          row_data[next_slack] = -1.0;
          ++next_slack;
          row_data[next_artificial] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
        case Relation::kEqual:
          row_data[next_artificial] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
      }
    }

    // Phase-2 cost row: reduced costs of the all-slack/artificial basis are
    // just the raw objective (basic variables all have zero true cost).
    cost2_.assign(static_cast<std::size_t>(cols_) + 1, 0.0);
    for (int j = 0; j < num_structural_; ++j) {
      cost2_[static_cast<std::size_t>(j)] =
          model.objective()[static_cast<std::size_t>(j)];
    }
    // Phase-1 cost row: cost 1 on artificials, reduced by the rows in which
    // an artificial is basic.
    cost1_.assign(static_cast<std::size_t>(cols_) + 1, 0.0);
    for (int j = first_artificial_; j < cols_; ++j) {
      cost1_[static_cast<std::size_t>(j)] = 1.0;
    }
    for (int i = 0; i < rows_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] >= first_artificial_) {
        for (int j = 0; j < cols_; ++j) {
          cost1_[static_cast<std::size_t>(j)] -= at(i, j);
        }
        cost1_[static_cast<std::size_t>(cols_)] -=
            b_[static_cast<std::size_t>(i)];
      }
    }
    in_phase1_ = num_artificial_ > 0;
  }

  /// Pivots on (pivot_row, pivot_col), updating the live cost rows. The
  /// pivot row is scaled once and its nonzero columns collected; every other
  /// row and cost row is updated on those columns only. A skipped column
  /// has a pivot-row entry of exactly 0.0, where x - f * 0.0 == x, so the
  /// result equals the dense update up to the sign of a zero, which no
  /// comparison or division reads.
  void pivot(int pivot_row, int pivot_col) {
    double* pivot_row_data = row(pivot_row);
    const double inverse = 1.0 / pivot_row_data[pivot_col];
    int* nonzero = nonzero_.data();
    int num_nonzero = 0;
    for (int j = 0; j < cols_; ++j) {
      pivot_row_data[j] *= inverse;
      nonzero[num_nonzero] = j;
      num_nonzero += pivot_row_data[j] != 0.0 ? 1 : 0;
    }
    pivot_row_data[pivot_col] = 1.0;  // exact
    b_[static_cast<std::size_t>(pivot_row)] *= inverse;

    const double pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];
    const auto eliminate = [&](double* data, double factor) {
      for (int k = 0; k < num_nonzero; ++k) {
        const int j = nonzero[k];
        data[j] -= factor * pivot_row_data[j];
      }
      data[pivot_col] = 0.0;  // exact
    };
    for (int i = 0; i < rows_; ++i) {
      if (i == pivot_row) continue;
      double* row_data = row(i);
      const double factor = row_data[pivot_col];
      if (factor == 0.0) continue;
      eliminate(row_data, factor);
      b_[static_cast<std::size_t>(i)] -= factor * pivot_rhs;
      if (std::abs(b_[static_cast<std::size_t>(i)]) < options_.epsilon) {
        b_[static_cast<std::size_t>(i)] = 0.0;
      }
    }
    const auto update_cost = [&](std::vector<double>& cost) {
      const double factor = cost[static_cast<std::size_t>(pivot_col)];
      if (factor == 0.0) return;
      eliminate(cost.data(), factor);
      cost[static_cast<std::size_t>(cols_)] -= factor * pivot_rhs;
    };
    // Nothing reads cost1_ once phase 1 has ended.
    if (in_phase1_) update_cost(cost1_);
    update_cost(cost2_);
    basis_[static_cast<std::size_t>(pivot_row)] = pivot_col;
    ++pivots_;
  }

  /// Runs simplex iterations against the given cost row.
  SolveStatus iterate(std::vector<double>& cost, bool allow_artificial,
                      std::int64_t& iterations) {
    const int limit_col = allow_artificial ? cols_ : first_artificial_;
    int stalled = 0;
    bool use_bland = false;
    double last_objective = -cost[static_cast<std::size_t>(cols_)];
    while (true) {
      if (iterations++ >= options_.max_iterations) {
        return SolveStatus::kIterationLimit;
      }
      // Entering column.
      int entering = -1;
      if (use_bland) {
        for (int j = 0; j < limit_col; ++j) {
          if (cost[static_cast<std::size_t>(j)] < -options_.epsilon) {
            entering = j;
            break;
          }
        }
      } else {
        double best = -options_.epsilon;
        for (int j = 0; j < limit_col; ++j) {
          if (cost[static_cast<std::size_t>(j)] < best) {
            best = cost[static_cast<std::size_t>(j)];
            entering = j;
          }
        }
      }
      if (entering < 0) return SolveStatus::kOptimal;

      // Ratio test (ties broken by smallest basis index, Bland-compatible).
      int leaving = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < rows_; ++i) {
        const double coeff = at(i, entering);
        if (coeff > options_.epsilon) {
          const double ratio = b_[static_cast<std::size_t>(i)] / coeff;
          if (leaving < 0 || ratio < best_ratio - options_.epsilon ||
              (ratio < best_ratio + options_.epsilon &&
               basis_[static_cast<std::size_t>(i)] <
                   basis_[static_cast<std::size_t>(leaving)])) {
            leaving = i;
            best_ratio = ratio;
          }
        }
      }
      if (leaving < 0) return SolveStatus::kUnbounded;

      pivot(leaving, entering);

      // Anti-cycling: if the objective stops improving, fall back to Bland.
      const double objective = -cost[static_cast<std::size_t>(cols_)];
      if (objective < last_objective - options_.epsilon) {
        stalled = 0;
        use_bland = false;
      } else if (++stalled >= options_.stall_threshold) {
        use_bland = true;
      }
      last_objective = objective;
    }
  }

  /// After phase 1, pivot artificial variables out of the basis where
  /// possible. Rows where no non-artificial pivot exists are redundant and
  /// can be left with a degenerate (zero-valued) artificial basic variable:
  /// artificials never re-enter, and such rows have zero coefficients on
  /// every non-artificial column, so later pivots cannot change their value.
  void drive_out_artificials() {
    for (int i = 0; i < rows_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] < first_artificial_) continue;
      int pivot_col = -1;
      for (int j = 0; j < first_artificial_; ++j) {
        if (std::abs(at(i, j)) > options_.epsilon) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col >= 0) pivot(i, pivot_col);
    }
  }

  SimplexOptions options_;
  int num_structural_ = 0;
  int rows_ = 0;
  int cols_ = 0;
  int first_artificial_ = 0;
  int num_artificial_ = 0;
  double rhs_scale_ = 0.0;
  bool in_phase1_ = false;
  std::int64_t pivots_ = 0;
  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<double> cost1_;
  std::vector<double> cost2_;
  std::vector<int> basis_;
  std::vector<int> nonzero_;  ///< pivot-row nonzero columns, scratch
};

}  // namespace

Solution solve(const Model& model, const SimplexOptions& options) {
  QP_SPAN("lp.solve");
  QP_COUNTER_ADD("lp.solves", 1);
  if (model.num_constraints() == 0) {
    // Every variable sits at its lower bound 0 unless its cost is negative,
    // in which case the LP is unbounded.
    Solution solution;
    for (double c : model.objective()) {
      if (c < -options.epsilon) {
        solution.status = SolveStatus::kUnbounded;
        return solution;
      }
    }
    solution.status = SolveStatus::kOptimal;
    solution.objective = 0.0;
    solution.values.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
    return solution;
  }
  Tableau tableau(model, options);
  Solution solution = tableau.run();
  // Flushed once per solve; pivot selection is deterministic (Dantzig with a
  // Bland fallback, fixed tie-breaks), so these totals are reproducible.
  QP_COUNTER_ADD("lp.iterations", solution.iterations);
  QP_COUNTER_ADD("lp.pivots", tableau.pivots());
  QP_INVARIANT(
      solution.status != SolveStatus::kOptimal ||
          [&] {
            if (static_cast<int>(solution.values.size()) !=
                model.num_variables()) {
              return false;
            }
            double recomputed = 0.0;
            for (int j = 0; j < model.num_variables(); ++j) {
              const double x = solution.values[static_cast<std::size_t>(j)];
              if (!std::isfinite(x)) return false;
              recomputed += model.objective()[static_cast<std::size_t>(j)] * x;
            }
            return std::abs(recomputed - solution.objective) <=
                   1e-6 + 1e-6 * std::abs(solution.objective);
          }(),
      "optimal simplex solution must carry one finite value per variable "
      "and an objective equal to c.x");
  return solution;
}

}  // namespace qp::lp
