#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qp::lp {

int Model::add_variable(double objective_coefficient, std::string name) {
  if (!std::isfinite(objective_coefficient)) {
    throw std::invalid_argument("Model: objective coefficient must be finite");
  }
  objective_.push_back(objective_coefficient);
  names_.push_back(std::move(name));
  return static_cast<int>(objective_.size()) - 1;
}

void Model::set_objective_coefficient(int variable, double coefficient) {
  if (variable < 0 || variable >= num_variables()) {
    throw std::invalid_argument("Model: variable out of range");
  }
  if (!std::isfinite(coefficient)) {
    throw std::invalid_argument("Model: objective coefficient must be finite");
  }
  objective_[static_cast<std::size_t>(variable)] = coefficient;
}

void Model::add_constraint(std::vector<std::pair<int, double>> terms,
                           Relation relation, double rhs) {
  if (!std::isfinite(rhs)) {
    throw std::invalid_argument("Model: rhs must be finite");
  }
  for (const auto& [var, coeff] : terms) {
    if (var < 0 || var >= num_variables()) {
      throw std::invalid_argument("Model: constraint references unknown variable");
    }
    if (!std::isfinite(coeff)) {
      throw std::invalid_argument("Model: constraint coefficient must be finite");
    }
  }
  constraints_.push_back({std::move(terms), relation, rhs});
}

double dual_bound(const Model& model, const std::vector<double>& y) {
  if (y.size() != static_cast<std::size_t>(model.num_constraints())) {
    throw std::invalid_argument("dual_bound: need one dual per constraint");
  }
  std::vector<double> reduced = model.objective();  // c - A^T y
  double bound = 0.0;                               // b.y
  for (std::size_t i = 0; i < y.size(); ++i) {
    const Constraint& row = model.constraints()[i];
    double dual = std::isfinite(y[i]) ? y[i] : 0.0;
    if (row.relation == Relation::kLessEqual) dual = std::min(dual, 0.0);
    if (row.relation == Relation::kGreaterEqual) dual = std::max(dual, 0.0);
    if (dual == 0.0) continue;
    bound += row.rhs * dual;
    for (const auto& [var, coeff] : row.terms) {
      reduced[static_cast<std::size_t>(var)] -= coeff * dual;
    }
  }
  for (const double r : reduced) bound += std::min(r, 0.0);  // x_j <= 1
  // Overflowing duals can make the sum inf - inf; no bound is then -inf.
  return std::isnan(bound) ? -std::numeric_limits<double>::infinity() : bound;
}

}  // namespace qp::lp
