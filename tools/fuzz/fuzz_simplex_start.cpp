/// libFuzzer harness for solves from a shared phase 1 (src/lp/simplex.cpp).
/// The input bytes become a tiny LP, at most 8 rows and 8 variables, with
/// coefficients, rhs and costs drawn from small sets that hold zeros, ties
/// and negative values, and two objectives on its rows.
/// Contract: solved from lp::solve_phase1 of the model under the first
/// objective, the model under either objective equals its cold lp::solve
/// bit for bit: status, iterations, objective, values and duals. The second
/// objective is solved from the start two ways, which lp::solve matches to
/// the start differently: over a copy of the first model, which shares its
/// rows object (matched by identity), and over a model built anew from the
/// same rows (matched bit for bit).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace {

using namespace qp::lp;

/// Reads the input one byte at a time; past its end every byte is 0.
class Bytes {
 public:
  Bytes(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  std::uint8_t next() { return next_ < size_ ? data_[next_++] : 0; }
  template <std::size_t N>
  double pick(const double (&set)[N]) {
    return set[next() % N];
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t next_ = 0;
};

constexpr double kCoefficients[] = {0.0, 0.0, 0.0, 1.0, 1.0, -1.0, 2.0, 0.5};
constexpr double kRhs[] = {-2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 3.0, 4.0};
constexpr double kCosts[] = {-2.0, -1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 3.0};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Bytes bytes(data, size);
  const int rows_count = 1 + bytes.next() % 8;
  const int vars = 1 + bytes.next() % 8;
  SimplexOptions options;
  // At threshold 1 every degenerate pivot switches to Bland's rule.
  options.stall_threshold = bytes.next() % 2 == 0 ? 64 : 1;

  std::vector<double> first_costs;
  for (int j = 0; j < vars; ++j) first_costs.push_back(bytes.pick(kCosts));
  std::vector<Constraint> rows;
  for (int i = 0; i < rows_count; ++i) {
    static constexpr Relation kRelations[] = {
        Relation::kLessEqual, Relation::kGreaterEqual, Relation::kEqual};
    Constraint row;
    row.relation = kRelations[bytes.next() % 3];
    row.rhs = bytes.pick(kRhs);
    for (int j = 0; j < vars; ++j) {
      const double coefficient = bytes.pick(kCoefficients);
      if (coefficient != 0.0) row.terms.emplace_back(j, coefficient);
    }
    rows.push_back(std::move(row));
  }
  std::vector<double> second_costs;
  for (int j = 0; j < vars; ++j) second_costs.push_back(bytes.pick(kCosts));

  const auto build = [&](const std::vector<double>& costs) {
    Model model;
    for (const double cost : costs) model.add_variable(cost);
    for (const Constraint& row : rows) {
      model.add_constraint(row.terms, row.relation, row.rhs);
    }
    return model;
  };
  const Model first = build(first_costs);
  Model shared = first;
  for (int j = 0; j < vars; ++j) {
    shared.set_objective_coefficient(
        j, second_costs[static_cast<std::size_t>(j)]);
  }
  const Model built = build(second_costs);
  if (&shared.constraints() != &first.constraints() ||
      &built.constraints() == &first.constraints()) {
    __builtin_trap();
  }

  const Phase1 start = solve_phase1(first, options);
  const auto expect_same = [](const Solution& cold, const Solution& warm) {
    if (cold.status != warm.status || cold.iterations != warm.iterations ||
        !same_bits(cold.objective, warm.objective) ||
        !same_bits(cold.values, warm.values) ||
        !same_bits(cold.duals, warm.duals)) {
      __builtin_trap();
    }
  };
  expect_same(solve(first, options), solve(first, options, &start));
  const Solution cold = solve(built, options);
  expect_same(cold, solve(shared, options, &start));
  expect_same(cold, solve(built, options, &start));
  return 0;
}
