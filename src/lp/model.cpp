#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

namespace qp::lp {

const std::vector<Constraint> Model::kNoConstraints;

int Model::add_variable(double objective_coefficient) {
  if (!std::isfinite(objective_coefficient)) {
    throw std::invalid_argument("Model: objective coefficient must be finite");
  }
  objective_.push_back(objective_coefficient);
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
  if (constraints_ == nullptr) {
    constraints_ = std::make_shared<std::vector<Constraint>>();
  } else if (constraints_.use_count() > 1) {  // shared: copy on write
    constraints_ = std::make_shared<std::vector<Constraint>>(*constraints_);
  }
  constraints_->push_back({std::move(terms), relation, rhs});
}

double dual_bound(const Model& model, const std::vector<double>& y) {
  if (y.size() != static_cast<std::size_t>(model.num_constraints())) {
    throw std::invalid_argument("dual_bound: need one dual per constraint");
  }
  DualBound bound(model.objective());
  for (std::size_t i = 0; i < y.size(); ++i) {
    bound.add_row(model.constraints()[i], y[i]);
  }
  return bound.value();
}

void DualBound::add_row(const Constraint& row, double y) {
  double dual = std::isfinite(y) ? y : 0.0;
  if (row.relation == Relation::kLessEqual) dual = std::min(dual, 0.0);
  if (row.relation == Relation::kGreaterEqual) dual = std::max(dual, 0.0);
  if (dual == 0.0) return;
  bound_ += row.rhs * dual;
  for (const auto& [var, coeff] : row.terms) {
    reduced_[static_cast<std::size_t>(var)] -= coeff * dual;
  }
}

double DualBound::value() const {
  double bound = bound_;
  for (const double r : reduced_) bound += std::min(r, 0.0);  // x_j <= 1
  // Overflowing duals can make the sum inf - inf; no bound is then -inf.
  return std::isnan(bound) ? -std::numeric_limits<double>::infinity() : bound;
}

}  // namespace qp::lp
