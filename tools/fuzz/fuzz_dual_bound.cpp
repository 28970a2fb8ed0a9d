/// libFuzzer harness for the streamed weak-duality bounds
/// (core::ssqpp_dual_bound, assign::gap_dual_bound). The first input byte
/// picks an LP. For LP (9)-(14) the rest become a tiny single-source
/// instance: at most 6 nodes on a line (ties included), grid(2),
/// majority(3, 2) or majority(5, 3) under a uniform or skewed strategy,
/// capacities that may leave an element fitting nowhere, and a named row
/// set that may run past the model or repeat a row. For the GAP LP
/// (15)-(18) they become at most 5 jobs and 5 machines with forbidden and
/// over-budget pairs, and a y whose length may be off by one. Duals are
/// drawn from a set with zeros, both signs, +-inf, NaN and +-1e308 (whose
/// sums overflow).
/// Contract: the streamed bound refuses exactly what the model route
/// refuses, and otherwise equals lp::dual_bound on the model built from
/// the same rows bit for bit.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "assign/gap.hpp"
#include "assign/hungarian.hpp"
#include "core/instance.hpp"
#include "core/ssqpp_lp.hpp"
#include "graph/metric.hpp"
#include "lp/model.hpp"
#include "quorum/constructions.hpp"

namespace {

using namespace qp;

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

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDuals[] = {0.0,  0.0,   1.0, -1.0,  0.5,   -2.0,
                             3.0,  kInf, -kInf, kNaN, 1e308, -1e308};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<double> duals(Bytes& bytes, std::size_t count) {
  std::vector<double> y;
  for (std::size_t i = 0; i < count; ++i) y.push_back(bytes.pick(kDuals));
  return y;
}

void check_ssqpp(Bytes& bytes) {
  constexpr double kCoordinates[] = {0.0, 0.0, 1.0, 2.0, 2.5, 4.0};
  const int n = 2 + bytes.next() % 5;
  std::vector<double> coordinates;
  for (int v = 0; v < n; ++v) coordinates.push_back(bytes.pick(kCoordinates));
  const graph::Metric metric = graph::Metric::line(coordinates);

  const std::uint8_t which = bytes.next() % 3;
  const quorum::QuorumSystem system = which == 0   ? quorum::grid(2)
                                      : which == 1 ? quorum::majority(3, 2)
                                                   : quorum::majority(5, 3);
  std::vector<double> weights;
  const bool skewed = bytes.next() % 2 == 1;
  for (int q = 0; q < system.num_quorums(); ++q) {
    weights.push_back(skewed ? 1.0 + bytes.next() % 4 : 1.0);
  }
  double total = 0.0;
  for (const double weight : weights) total += weight;
  for (double& weight : weights) weight /= total;
  const quorum::AccessStrategy strategy(system, weights);

  constexpr double kCapacities[] = {0.1, 0.5, 0.75, 1.0, 2.0, 10.0};
  std::vector<double> capacities;
  for (int v = 0; v < n; ++v) capacities.push_back(bytes.pick(kCapacities));
  const core::SsqppInstance instance(metric, capacities, system, strategy,
                                     bytes.next() % n);

  // Strictly increasing unless a step of 0 repeats a row; may run past the
  // model's last row.
  std::vector<int> rows;
  const int count = bytes.next() % 16;
  for (int row = bytes.next() % 4, i = 0; i < count; ++i) {
    rows.push_back(row);
    row += bytes.next() % 6;
  }
  const std::vector<double> y = duals(bytes, rows.size());

  const std::optional<core::SsqppBound> streamed =
      core::ssqpp_dual_bound(instance, rows, y);
  const std::optional<core::SsqppLp> lp = core::build_ssqpp_lp(instance, rows);
  if (streamed.has_value() != lp.has_value()) __builtin_trap();
  if (!streamed) return;
  if (streamed->element_fits != lp->element_fits) __builtin_trap();
  if (streamed->element_fits &&
      !same_bits(streamed->value, lp::dual_bound(lp->model, y))) {
    __builtin_trap();
  }
}

void check_gap(Bytes& bytes) {
  constexpr double kCosts[] = {0.0, 0.0, 1.0, 2.5, 4.0, 7.0};
  constexpr double kLoads[] = {0.25, 0.5, 1.0, 1.5, 3.0, assign::kForbidden};
  constexpr double kCapacities[] = {0.0, 0.5, 1.0, 2.0};
  const int jobs = bytes.next() % 6;
  const int machines = bytes.next() % 6;
  assign::GapInstance gap(jobs, machines);
  for (int i = 0; i < machines; ++i) {
    gap.set_capacity(i, bytes.pick(kCapacities));
    for (int j = 0; j < jobs; ++j) {
      gap.set_cost(i, j, bytes.pick(kCosts));
      gap.set_load(i, j, bytes.pick(kLoads));
    }
  }
  const assign::GapLp lp = assign::build_gap_lp(gap);
  const auto rows = static_cast<std::size_t>(lp.model.num_constraints());
  const std::uint8_t skew = bytes.next() % 4;  // 3: one short, 2: one long
  const std::size_t size =
      skew == 3 ? (rows == 0 ? 1 : rows - 1) : rows + (skew == 2 ? 1 : 0);
  const std::vector<double> y = duals(bytes, size);

  const std::optional<double> streamed = assign::gap_dual_bound(gap, y);
  if (streamed.has_value() != (size == rows)) __builtin_trap();
  if (streamed && !same_bits(*streamed, lp::dual_bound(lp.model, y))) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Bytes bytes(data, size);
  if (bytes.next() % 2 == 0) {
    check_ssqpp(bytes);
  } else {
    check_gap(bytes);
  }
  return 0;
}
