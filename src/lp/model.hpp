#pragma once

/// \file model.hpp
/// Minimal linear-program model: minimize c.x subject to linear rows and
/// x >= 0. This is the interface consumed by the simplex solver and produced
/// by the SSQPP LP builder (paper eqs. (9)-(14)) and the GAP LP relaxation
/// (paper eqs. (15)-(18)).

#include <string>
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
  int add_variable(double objective_coefficient = 0.0, std::string name = "");

  /// Overwrites the objective coefficient of an existing variable.
  void set_objective_coefficient(int variable, double coefficient);

  /// Adds a constraint row. Terms may mention a variable more than once
  /// (coefficients are summed by the solver). \throws std::invalid_argument
  /// on out-of-range variable ids or non-finite numbers.
  void add_constraint(std::vector<std::pair<int, double>> terms,
                      Relation relation, double rhs);

  int num_variables() const { return static_cast<int>(objective_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const std::string& variable_name(int variable) const {
    return names_.at(static_cast<std::size_t>(variable));
  }

 private:
  std::vector<double> objective_;
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
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

}  // namespace qp::lp
