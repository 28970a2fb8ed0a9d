/// libFuzzer harness for solves from a shared phase 1 (src/lp/simplex.cpp).
/// The input bytes become a tiny LP, at most 8 rows and 8 variables, with
/// coefficients, rhs and costs drawn from small sets that hold zeros, ties
/// and negative values, and two objectives on its rows.
/// Contract: solved from lp::solve_phase1 of the model under the first
/// objective, the model under either objective equals its cold lp::solve
/// bit for bit: status, iterations, objective, values and duals.

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
  const int rows = 1 + bytes.next() % 8;
  const int vars = 1 + bytes.next() % 8;
  SimplexOptions options;
  // At threshold 1 every degenerate pivot switches to Bland's rule.
  options.stall_threshold = bytes.next() % 2 == 0 ? 64 : 1;

  Model first;
  for (int j = 0; j < vars; ++j) first.add_variable(bytes.pick(kCosts));
  for (int i = 0; i < rows; ++i) {
    static constexpr Relation kRelations[] = {
        Relation::kLessEqual, Relation::kGreaterEqual, Relation::kEqual};
    const Relation relation = kRelations[bytes.next() % 3];
    const double rhs = bytes.pick(kRhs);
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < vars; ++j) {
      const double coefficient = bytes.pick(kCoefficients);
      if (coefficient != 0.0) terms.emplace_back(j, coefficient);
    }
    first.add_constraint(std::move(terms), relation, rhs);
  }
  Model second = first;
  for (int j = 0; j < vars; ++j) {
    second.set_objective_coefficient(j, bytes.pick(kCosts));
  }

  const Phase1 start = solve_phase1(first, options);
  for (const Model* model : {&first, &second}) {
    const Solution cold = solve(*model, options);
    const Solution warm = solve(*model, options, &start);
    if (cold.status != warm.status || cold.iterations != warm.iterations ||
        !same_bits(cold.objective, warm.objective) ||
        !same_bits(cold.values, warm.values) ||
        !same_bits(cold.duals, warm.duals)) {
      __builtin_trap();
    }
  }
  return 0;
}
