#pragma once

/// \file model.hpp
/// Minimal linear-program model: minimize c.x subject to linear rows and
/// x >= 0. This is the interface consumed by the simplex solver and produced
/// by the SSQPP LP builder (paper eqs. (9)-(14)) and the GAP LP relaxation
/// (paper eqs. (15)-(18)).
///
/// A Model is a value, but its rows are held behind a shared pointer:
/// copying a model shares them, and add_constraint on a model whose rows
/// are shared copies them first (copy on write). So a model that differs
/// from another only in its objective, built by copying it and setting the
/// objective, costs no row copies, and lp::solve can tell from the rows'
/// address that two models have the same rows (the relay LPs of a Thm 1.2
/// sweep on uniform capacities do, src/core/ssqpp_lp.cpp).

#include <memory>
#include <utility>
#include <vector>

namespace qp::lp {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

/// A sparse linear row: sum(coeff * x[var]) REL rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// LP in "minimize" orientation with non-negative variables.
class Model {
 public:
  /// Adds a variable with the given objective coefficient; returns its index.
  int add_variable(double objective_coefficient = 0.0);

  /// Overwrites the objective coefficient of an existing variable.
  void set_objective_coefficient(int variable, double coefficient);

  /// Adds a constraint row. Terms may mention a variable more than once
  /// (coefficients are summed by the solver). \throws std::invalid_argument
  /// on out-of-range variable ids or non-finite numbers.
  void add_constraint(std::vector<std::pair<int, double>> terms,
                      Relation relation, double rhs);

  int num_variables() const { return static_cast<int>(objective_.size()); }
  int num_constraints() const {
    return static_cast<int>(constraints().size());
  }
  const std::vector<double>& objective() const { return objective_; }
  /// The rows; one object for this model and every copy that shares them.
  const std::vector<Constraint>& constraints() const {
    return constraints_ != nullptr ? *constraints_ : kNoConstraints;
  }

 private:
  static const std::vector<Constraint> kNoConstraints;

  std::vector<double> objective_;
  /// Shared with the copies of this model; never written while shared.
  std::shared_ptr<std::vector<Constraint>> constraints_;
};

/// Weak-duality lower bound on min c.x over the model's rows, 0 <= x <= 1,
/// for any row duals y (one per constraint): each y_i is first projected
/// onto the sign its relation needs (<= rows: y_i <= 0, >= rows: y_i >= 0,
/// non-finite: 0), then the bound is
///   b.y + sum_j min(0, (c - A^T y)_j).
/// It is at most the LP optimum whenever every feasible x has x_j <= 1, as
/// in LP (9)-(14) and the GAP LP (15)-(18), whatever y is; the duals of an
/// optimal solve make it equal the optimum up to rounding (Neumaier and
/// Shcherbina, "Safe bounds in linear and mixed-integer programming", 2004).
/// \throws std::invalid_argument unless y has one entry per constraint.
double dual_bound(const Model& model, const std::vector<double>& y);

/// dual_bound's arithmetic, one row at a time, so a bound can be taken over
/// rows streamed from their generator without building a Model: start from
/// the objective c, add each row with its dual in model order, then read
/// value(). Rows added in a Model's order give dual_bound bit for bit.
class DualBound {
 public:
  explicit DualBound(std::vector<double> objective)
      : reduced_(std::move(objective)) {}

  /// Projects y onto the sign the row's relation needs and, unless that
  /// leaves 0, adds rhs * y to b.y and subtracts coeff * y from each term's
  /// reduced cost. Term variables must index the objective.
  void add_row(const Constraint& row, double y);

  /// b.y + sum_j min(0, (c - A^T y)_j); -inf where that sum is NaN.
  double value() const;

 private:
  std::vector<double> reduced_;  ///< c - A^T y over the rows added so far
  double bound_ = 0.0;           ///< b.y over the rows added so far
};

}  // namespace qp::lp
