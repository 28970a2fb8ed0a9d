#include "core/ssqpp_lp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "lp/model.hpp"
#include "obs/obs.hpp"

namespace qp::core {

namespace {

/// Contract helper: every x_tu / x_tQ column of a (filtered) solution
/// carries total mass 1 -- the Sec 3.3.1 filtering guarantee.
[[maybe_unused]] bool columns_stochastic(const FractionalSsqpp& solution,
                                         double tolerance) {
  for (int u = 0; u < solution.universe_size; ++u) {
    double mass = 0.0;
    for (int t = 0; t < solution.num_nodes; ++t) mass += solution.xu(t, u);
    if (std::abs(mass - 1.0) > tolerance) return false;
  }
  for (int q = 0; q < solution.num_quorums; ++q) {
    double mass = 0.0;
    for (int t = 0; t < solution.num_nodes; ++t) mass += solution.xq(t, q);
    if (std::abs(mass - 1.0) > tolerance) return false;
  }
  return true;
}

}  // namespace

double FractionalSsqpp::quorum_distance(int q) const {
  double dq = 0.0;
  for (int t = 0; t < num_nodes; ++t) {
    dq += sorted_distance[static_cast<std::size_t>(t)] * xq(t, q);
  }
  return dq;
}

namespace {

/// Where each column and row of the full LP (9)-(14) sits (SsqppLp's
/// full-model order), computed once per instance.
struct Layout {
  int n = 0;
  int num_elements = 0;
  int num_quorums = 0;
  std::vector<int> node_order;
  std::vector<double> sorted_distance;
  std::vector<char> fits;  ///< t-major: (13) admits x_{tu}
  bool element_fits = true;
  std::vector<int> capacity_rank;            ///< rank of each (12) row
  std::vector<std::pair<int, int>> members;  ///< (Q, u) of each (14) block
  int first_prefix_row = 0;  ///< full index of the first (14) row
  int num_rows = 0;          ///< rows of the full model

  /// Index of (t, u) in a t-major n x |U| array, and of (t, Q) in a
  /// t-major n x |Q| array.
  std::size_t tu(int t, int u) const {
    return static_cast<std::size_t>(t) *
               static_cast<std::size_t>(num_elements) +
           static_cast<std::size_t>(u);
  }
  std::size_t tq(int t, int q) const {
    return static_cast<std::size_t>(t) *
               static_cast<std::size_t>(num_quorums) +
           static_cast<std::size_t>(q);
  }
  bool fit(int t, int u) const { return fits[tu(t, u)] != 0; }
  /// Full index of the (14) row of block k at rank t < n-1.
  int prefix_row(std::size_t k, int t) const {
    return first_prefix_row + static_cast<int>(k) * (n - 1) + t;
  }
};

Layout layout_of(const SsqppInstance& instance) {
  Layout layout;
  layout.n = instance.num_nodes();
  layout.num_elements = instance.system().universe_size();
  layout.num_quorums = instance.system().num_quorums();
  const std::vector<double>& loads = instance.element_loads();
  layout.node_order =
      instance.metric().nodes_by_distance_from(instance.source());
  layout.sorted_distance.resize(static_cast<std::size_t>(layout.n));
  layout.fits.assign(layout.tu(layout.n, 0), 0);
  std::vector<char> element_placed(
      static_cast<std::size_t>(layout.num_elements), 0);
  for (int t = 0; t < layout.n; ++t) {
    const int node = layout.node_order[static_cast<std::size_t>(t)];
    layout.sorted_distance[static_cast<std::size_t>(t)] =
        instance.metric()(instance.source(), node);
    const double cap = instance.capacity(node);
    bool any_fits = false;
    for (int u = 0; u < layout.num_elements; ++u) {
      if (loads[static_cast<std::size_t>(u)] <= cap + 1e-12) {  // (13)
        layout.fits[layout.tu(t, u)] = 1;
        element_placed[static_cast<std::size_t>(u)] = 1;
        any_fits = true;
      }
    }
    if (any_fits) layout.capacity_rank.push_back(t);
  }
  layout.element_fits = std::ranges::all_of(
      element_placed, [](char placed) { return placed != 0; });
  for (int q = 0; q < layout.num_quorums; ++q) {
    for (int u : instance.system().quorum(q)) layout.members.emplace_back(q, u);
  }
  layout.first_prefix_row = layout.num_elements + layout.num_quorums +
                            static_cast<int>(layout.capacity_rank.size());
  layout.num_rows = layout.first_prefix_row +
                    static_cast<int>(layout.members.size()) * (layout.n - 1);
  return layout;
}

/// The columns of ranks t < ranks of LP (9)-(14), numbered in full-model
/// order: rank by rank, x_{tu} for each u that (13) admits, then x_{tQ} for
/// each Q.
struct Columns {
  std::vector<int> var_tu;  ///< Layout::tu-indexed ids; -1 where no column
  std::vector<int> var_tq;  ///< Layout::tq-indexed ids; -1 where no column
  std::vector<double> objective;  ///< per model id, objective (9)
};

Columns columns_of(const SsqppInstance& instance, const Layout& layout,
                   int ranks) {
  Columns out;
  out.var_tu.assign(layout.tu(layout.n, 0), -1);
  out.var_tq.assign(layout.tq(layout.n, 0), -1);
  out.objective.reserve(layout.tu(ranks, 0) + layout.tq(ranks, 0));
  for (int t = 0; t < ranks; ++t) {
    for (int u = 0; u < layout.num_elements; ++u) {
      if (layout.fit(t, u)) {  // (13)
        out.var_tu[layout.tu(t, u)] = static_cast<int>(out.objective.size());
        out.objective.push_back(0.0);
      }
    }
    for (int q = 0; q < layout.num_quorums; ++q) {
      out.var_tq[layout.tq(t, q)] = static_cast<int>(out.objective.size());
      // Objective (9): sum_Q p0(Q) sum_t d_t x_{tQ}.
      out.objective.push_back(
          instance.strategy().probability(q) *
          layout.sorted_distance[static_cast<std::size_t>(t)]);
    }
  }
  return out;
}

/// The one description of LP (9)-(14)'s rows: writes the row with
/// full-model index `row` (in range), over the columns of ranks t < ranks,
/// into `out`, reusing its terms' storage.
void part_row(const SsqppInstance& instance, const Layout& layout, int ranks,
              const Columns& columns, int row, lp::Constraint& out) {
  const int num_elements = layout.num_elements;
  const int first_capacity_row = num_elements + layout.num_quorums;
  std::vector<std::pair<int, double>>& terms = out.terms;
  terms.clear();
  if (row < num_elements) {
    // (10): each element placed exactly once.
    for (int t = 0; t < ranks; ++t) {
      const int var = columns.var_tu[layout.tu(t, row)];
      if (var >= 0) terms.emplace_back(var, 1.0);
    }
    out.relation = lp::Relation::kEqual;
    out.rhs = 1.0;
    return;
  }
  if (row < first_capacity_row) {
    // (11): each quorum completes exactly once.
    for (int t = 0; t < ranks; ++t) {
      terms.emplace_back(columns.var_tq[layout.tq(t, row - num_elements)],
                         1.0);
    }
    out.relation = lp::Relation::kEqual;
    out.rhs = 1.0;
    return;
  }
  if (row < layout.first_prefix_row) {
    // (12): node capacities.
    const int t = layout.capacity_rank[static_cast<std::size_t>(
        row - first_capacity_row)];
    const std::vector<double>& loads = instance.element_loads();
    for (int u = 0; t < ranks && u < num_elements; ++u) {
      const int var = columns.var_tu[layout.tu(t, u)];
      if (var >= 0) {
        terms.emplace_back(var, loads[static_cast<std::size_t>(u)]);
      }
    }
    out.relation = lp::Relation::kLessEqual;
    out.rhs = instance.capacity(layout.node_order[static_cast<std::size_t>(t)]);
    return;
  }
  // (14): prefix of x_{.Q} dominated by prefix of x_{.u} for u in Q.
  const int block = (row - layout.first_prefix_row) / (layout.n - 1);
  const int t = (row - layout.first_prefix_row) % (layout.n - 1);
  const auto [q, u] = layout.members[static_cast<std::size_t>(block)];
  for (int s = 0; s <= t && s < ranks; ++s) {
    terms.emplace_back(columns.var_tq[layout.tq(s, q)], 1.0);
    const int var = columns.var_tu[layout.tu(s, u)];
    if (var >= 0) terms.emplace_back(var, -1.0);
  }
  out.relation = lp::Relation::kLessEqual;
  out.rhs = 0.0;
}

/// The columns of ranks t < ranks and the given rows (full-model indices,
/// strictly increasing, in range) of LP (9)-(14).
SsqppLp build_part(const SsqppInstance& instance, const Layout& layout,
                   int ranks, const std::vector<int>& rows) {
  QP_SPAN("ssqpp_lp.build");
  SsqppLp out;
  out.element_fits = layout.element_fits;
  if (!out.element_fits) return out;
  Columns columns = columns_of(instance, layout, ranks);
  for (const double cost : columns.objective) out.model.add_variable(cost);
  lp::Constraint constraint;
  for (const int row : rows) {
    part_row(instance, layout, ranks, columns, row, constraint);
    out.model.add_constraint(constraint.terms, constraint.relation,
                             constraint.rhs);
  }
  out.var_tu = std::move(columns.var_tu);
  out.var_tq = std::move(columns.var_tq);
  return out;
}

/// `rows` is strictly increasing and names rows of the full model.
bool names_rows(const Layout& layout, const std::vector<int>& rows) {
  return std::ranges::adjacent_find(rows, std::greater_equal{}) ==
             rows.end() &&
         (rows.empty() ||
          (rows.front() >= 0 && rows.back() < layout.num_rows));
}

}  // namespace

SsqppLp build_ssqpp_lp(const SsqppInstance& instance) {
  const Layout layout = layout_of(instance);
  std::vector<int> rows(static_cast<std::size_t>(layout.num_rows));
  std::iota(rows.begin(), rows.end(), 0);
  return build_part(instance, layout, layout.n, rows);
}

std::optional<SsqppLp> build_ssqpp_lp(const SsqppInstance& instance,
                                      const std::vector<int>& rows) {
  const Layout layout = layout_of(instance);
  if (!names_rows(layout, rows)) return std::nullopt;
  return build_part(instance, layout, layout.n, rows);
}

std::optional<SsqppBound> ssqpp_dual_bound(const SsqppInstance& instance,
                                           const std::vector<int>& rows,
                                           const std::vector<double>& y) {
  if (y.size() != rows.size()) {
    throw std::invalid_argument("ssqpp_dual_bound: need one dual per row");
  }
  const Layout layout = layout_of(instance);
  if (!names_rows(layout, rows)) return std::nullopt;
  if (!layout.element_fits) return SsqppBound{false, 0.0};
  Columns columns = columns_of(instance, layout, layout.n);
  lp::DualBound bound(std::move(columns.objective));
  lp::Constraint row;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (y[i] == 0.0) continue;  // adds nothing, whatever the row
    part_row(instance, layout, layout.n, columns, rows[i], row);
    bound.add_row(row, y[i]);
  }
  return SsqppBound{true, bound.value()};
}

namespace {

/// The ranks and rows of a part of LP (9)-(14) that solve_ssqpp_lp grows.
struct Part {
  int ranks = 0;             ///< columns of ranks t < ranks
  std::vector<char> active;  ///< per full-model row: in the model

  std::vector<int> rows() const {
    std::vector<int> out;
    for (std::size_t row = 0; row < active.size(); ++row) {
      if (active[row] != 0) out.push_back(static_cast<int>(row));
    }
    return out;
  }

  /// Adds the columns of ranks [ranks, wanted) and their (12) rows; returns
  /// the number of columns added.
  std::uint64_t widen(const Layout& layout, int wanted) {
    const int first_capacity_row = layout.num_elements + layout.num_quorums;
    std::uint64_t columns = 0;
    for (std::size_t i = 0; i < layout.capacity_rank.size(); ++i) {
      const int t = layout.capacity_rank[i];
      if (t >= ranks && t < wanted) {
        active[static_cast<std::size_t>(first_capacity_row) + i] = 1;
      }
    }
    for (int t = ranks; t < wanted; ++t) {
      for (int u = 0; u < layout.num_elements; ++u) {
        columns += layout.fit(t, u) ? 1 : 0;
      }
      columns += static_cast<std::uint64_t>(layout.num_quorums);
    }
    ranks = wanted;
    return columns;
  }
};

/// The first model of solve_ssqpp_lp: rows (10) and (11), and the ranks
/// t < m with their (12) and (14) rows. m is the shortest prefix of the
/// distance order whose capacity covers the total load and that holds each
/// element's first rank where (13) admits it, so every element has a column.
Part seed_part(const SsqppInstance& instance, const Layout& layout) {
  const int n = layout.n;
  Part part;
  part.active.assign(static_cast<std::size_t>(layout.num_rows), 0);
  std::fill_n(part.active.begin(), layout.num_elements + layout.num_quorums,
              1);
  const std::vector<double>& loads = instance.element_loads();
  const double total_load = std::accumulate(loads.begin(), loads.end(), 0.0);
  int seed = 0;
  double capacity = 0.0;
  while (seed < n && (seed == 0 || capacity < total_load)) {
    capacity +=
        instance.capacity(layout.node_order[static_cast<std::size_t>(seed++)]);
  }
  for (int u = 0; u < layout.num_elements; ++u) {
    int first_fit = 0;
    while (!layout.fit(first_fit, u)) ++first_fit;  // element_fits holds
    seed = std::max(seed, first_fit + 1);
  }
  part.widen(layout, seed);
  for (std::size_t k = 0; k < layout.members.size(); ++k) {
    for (int t = 0; t < std::min(part.ranks, n - 1); ++t) {
      part.active[static_cast<std::size_t>(layout.prefix_row(k, t))] = 1;
    }
  }
  return part;
}

}  // namespace

namespace {

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// The instance's capacities in the layout's distance order.
std::vector<double> capacities_in_order(const SsqppInstance& instance,
                                        const Layout& layout) {
  std::vector<double> out;
  out.reserve(layout.node_order.size());
  for (const int node : layout.node_order) {
    out.push_back(instance.capacity(node));
  }
  return out;
}

/// Whether `seed`'s rows are the instance's seeded rows: everything they
/// depend on, the capacities in distance order, the element loads and the
/// quorum membership, is the seed's bit for bit.
bool takes_rows(const SsqppSeed& seed, const SsqppInstance& instance,
                const Layout& layout) {
  const std::vector<double>& loads = instance.element_loads();
  if (seed.capacities.size() != layout.node_order.size() ||
      seed.element_loads.size() != loads.size()) {
    return false;
  }
  for (std::size_t t = 0; t < layout.node_order.size(); ++t) {
    if (!same_bits(seed.capacities[t],
                   instance.capacity(layout.node_order[t]))) {
      return false;
    }
  }
  return std::ranges::equal(seed.element_loads, loads, same_bits) &&
         seed.quorums == instance.system().quorums();
}

/// The first model of solve_ssqpp_lp, over the seeded `part`: when `seed`'s
/// rows are the instance's, a model that shares them under the instance's
/// objective and columns (columns_of gives the same columns, in the same
/// order, as the seed's model has); else one built as any round's.
SsqppLp seeded_model(const SsqppInstance& instance, const Layout& layout,
                     const Part& part, const std::vector<int>& rows,
                     const SsqppSeed* seed) {
  if (seed == nullptr || !takes_rows(*seed, instance, layout)) {
    return build_part(instance, layout, part.ranks, rows);
  }
  Columns columns = columns_of(instance, layout, part.ranks);
  QP_INVARIANT(columns.objective.size() ==
                   static_cast<std::size_t>(seed->lp.model.num_variables()),
               "equal capacities, loads and quorums give the seed's columns");
  SsqppLp out;
  out.model = seed->lp.model;  // shares its rows
  for (std::size_t j = 0; j < columns.objective.size(); ++j) {
    out.model.set_objective_coefficient(static_cast<int>(j),
                                        columns.objective[j]);
  }
  out.var_tu = std::move(columns.var_tu);
  out.var_tq = std::move(columns.var_tq);
  return out;
}

}  // namespace

SsqppLp build_seeded_ssqpp_lp(const SsqppInstance& instance,
                              const SsqppSeed* seed) {
  const Layout layout = layout_of(instance);
  if (!layout.element_fits) return build_part(instance, layout, 0, {});
  const Part part = seed_part(instance, layout);
  return seeded_model(instance, layout, part, part.rows(), seed);
}

std::optional<SsqppSeed> ssqpp_phase1_start(
    const SsqppInstance& instance, const lp::SimplexOptions& options) {
  QP_SPAN("ssqpp_lp.start");
  const Layout layout = layout_of(instance);
  if (!layout.element_fits) return std::nullopt;
  const Part part = seed_part(instance, layout);
  SsqppLp lp = build_part(instance, layout, part.ranks, part.rows());
  lp::Phase1 phase1 = lp::solve_phase1(lp.model, options);
  return SsqppSeed{std::move(phase1), std::move(lp),
                   capacities_in_order(instance, layout),
                   instance.element_loads(), instance.system().quorums()};
}

FractionalSsqpp solve_ssqpp_lp(const SsqppInstance& instance,
                               const lp::SimplexOptions& options,
                               const SsqppSeed* seed) {
  Layout layout;
  Part part;
  {
    QP_SPAN("ssqpp_lp.layout");
    layout = layout_of(instance);
    if (layout.element_fits) part = seed_part(instance, layout);
  }
  const int n = layout.n;
  const int num_elements = layout.num_elements;
  const int num_quorums = layout.num_quorums;
  FractionalSsqpp out;
  out.num_nodes = n;
  out.universe_size = num_elements;
  out.num_quorums = num_quorums;
  out.node_order = layout.node_order;
  out.sorted_distance = layout.sorted_distance;
  out.quorum_probability = instance.strategy().probabilities();
  if (!layout.element_fits) {
    out.status = lp::SolveStatus::kInfeasible;  // element fits nowhere
    return out;
  }
  QP_COUNTER_ADD("ssqpp_lp.models", 1);

  const std::vector<double>& probability = out.quorum_probability;
  for (bool first_round = true;; first_round = false) {
    std::vector<int> rows = part.rows();
    const SsqppLp lp =
        first_round ? seeded_model(instance, layout, part, rows, seed)
                    : build_part(instance, layout, part.ranks, rows);
    QP_COUNTER_ADD("ssqpp_lp.rounds", 1);
    QP_COUNTER_ADD("ssqpp_lp.variables", lp.model.num_variables());
    QP_COUNTER_ADD("ssqpp_lp.constraints", lp.model.num_constraints());
    // Only the seeded model can share its rows with another relay's.
    lp::Solution solution =
        lp::solve(lp.model, options, first_round ? seed : nullptr);
    if (solution.status == lp::SolveStatus::kInfeasible && part.ranks < n) {
      // Infeasible over fewer ranks proves nothing. Over all n ranks the
      // model is a relaxation of the full LP, so there it proves kInfeasible.
      QP_COUNTER_ADD("ssqpp_lp.columns_added", part.widen(layout, n));
      continue;
    }
    out.status = solution.status;
    if (solution.status != lp::SolveStatus::kOptimal) return out;

    out.x_tu.assign(lp.var_tu.size(), 0.0);
    out.x_tq.assign(lp.var_tq.size(), 0.0);
    for (std::size_t i = 0; i < lp.var_tu.size(); ++i) {
      if (lp.var_tu[i] >= 0) {
        out.x_tu[i] = std::max(
            0.0, solution.values[static_cast<std::size_t>(lp.var_tu[i])]);
      }
    }
    for (std::size_t i = 0; i < lp.var_tq.size(); ++i) {
      if (lp.var_tq[i] >= 0) {
        out.x_tq[i] = std::max(
            0.0, solution.values[static_cast<std::size_t>(lp.var_tq[i])]);
      }
    }

    std::uint64_t rows_added = 0;
    int wanted = part.ranks;
    {
      QP_SPAN("ssqpp_lp.price");
      // Violated (14) rows, by prefix sums over the ranks in the model (the
      // rows of later ranks hold by (10) and (11)).
      for (std::size_t k = 0; k < layout.members.size(); ++k) {
        const auto [q, u] = layout.members[k];
        double prefix = 0.0;
        for (int t = 0; t < std::min(part.ranks, n - 1); ++t) {
          prefix += out.xq(t, q) - out.xu(t, u);
          char& row = part.active[static_cast<std::size_t>(
              layout.prefix_row(k, t))];
          if (row == 0 && prefix > options.epsilon) {
            row = 1;
            ++rows_added;
          }
        }
      }
      // Pricing the missing columns with y = 0 on the missing rows: x_{tQ}
      // costs p(Q) d_t - y_(11)(Q), x_{tu} costs -y_(10)(u).
      for (int t = part.ranks; t < n; ++t) {
        const double d = layout.sorted_distance[static_cast<std::size_t>(t)];
        for (int q = 0; q < num_quorums; ++q) {
          const double y =
              solution.duals[static_cast<std::size_t>(num_elements + q)];
          if (probability[static_cast<std::size_t>(q)] * d - y <
              -options.epsilon) {
            wanted = t + 1;
          }
        }
        for (int u = 0; u < num_elements; ++u) {
          const double y = solution.duals[static_cast<std::size_t>(u)];
          if (layout.fit(t, u) && -y < -options.epsilon) wanted = t + 1;
        }
      }
    }
    const int previous_ranks = part.ranks;
    QP_COUNTER_ADD("ssqpp_lp.rows_added", rows_added);
    QP_COUNTER_ADD("ssqpp_lp.columns_added", part.widen(layout, wanted));
    if (rows_added == 0 && part.ranks == previous_ranks) {
      out.objective = solution.objective;
      out.duals = {std::move(rows), std::move(solution.duals)};
      break;
    }
  }
  QP_INVARIANT(check::validate_lp_solution(instance, out).ok(),
               "LP (9)-(14) optimum must be primal-feasible");
  return out;
}

namespace {

/// Applies the Sec 3.3.1 filtering to one column (fixed u or Q) laid out
/// with stride over t: x~_t = min(alpha * x_t, 1 - mass so far).
void filter_column(const std::vector<double>& x, std::vector<double>& out,
                   int num_rows, std::size_t offset, std::size_t stride,
                   double alpha) {
  double cumulative = 0.0;
  for (int t = 0; t < num_rows; ++t) {
    const std::size_t idx = offset + static_cast<std::size_t>(t) * stride;
    const double headroom = 1.0 - cumulative;
    if (headroom <= 0.0) {
      out[idx] = 0.0;
      continue;
    }
    const double value = std::min(alpha * x[idx], headroom);
    out[idx] = value;
    cumulative += value;
  }
}

}  // namespace

FractionalSsqpp filter_fractional(const FractionalSsqpp& fractional,
                                  double alpha) {
  if (!(alpha > 1.0)) {
    throw std::invalid_argument("filter_fractional: alpha > 1 required");
  }
  if (fractional.status != lp::SolveStatus::kOptimal) {
    throw std::invalid_argument("filter_fractional: needs an optimal solution");
  }
  FractionalSsqpp out = fractional;
  out.duals = {};  // the filtered solution is no longer an LP optimum
  const auto num_elements = static_cast<std::size_t>(fractional.universe_size);
  const auto num_quorums = static_cast<std::size_t>(fractional.num_quorums);
  for (std::size_t u = 0; u < num_elements; ++u) {
    filter_column(fractional.x_tu, out.x_tu, fractional.num_nodes, u,
                  num_elements, alpha);
  }
  for (std::size_t q = 0; q < num_quorums; ++q) {
    filter_column(fractional.x_tq, out.x_tq, fractional.num_nodes, q,
                  num_quorums, alpha);
  }
  // Recompute the (no larger) objective of the filtered solution.
  out.objective = 0.0;
  for (int q = 0; q < fractional.num_quorums; ++q) {
    out.objective +=
        fractional.quorum_probability[static_cast<std::size_t>(q)] *
        out.quorum_distance(q);
  }
  QP_INVARIANT(columns_stochastic(out, 1e-6),
               "alpha-filtering must keep per-column mass exactly 1");
  QP_INVARIANT(out.objective <= fractional.objective + 1e-6,
               "filtering moves mass toward the source, so the objective "
               "cannot grow (paper Sec 3.3.1)");
  return out;
}

}  // namespace qp::core
