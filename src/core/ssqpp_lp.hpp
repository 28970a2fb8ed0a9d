#pragma once

/// \file ssqpp_lp.hpp
/// The LP relaxation (paper eqs. (9)-(14)) of the Single-Source Quorum
/// Placement Problem and the alpha-filtering step of Sec 3.3.1.
///
/// Nodes are renamed v_0, v_1, ..., v_{n-1} in non-decreasing distance from
/// the source (d_0 <= d_1 <= ...). Variable x_{tu} places element u on node
/// v_t; x_{tQ} marks quorum Q as fully placed within the prefix
/// {v_0, ..., v_t}.

#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace qp::core {

/// Row duals of a model built on a subset of LP (9)-(14)'s rows:
/// values[i] belongs to the row whose index in the full model
/// (build_ssqpp_lp(instance)'s row order) is rows[i]. With every column and
/// only the named rows, ssqpp_dual_bound turns them into a lower bound on
/// Z*.
struct SsqppDuals {
  std::vector<int> rows;       ///< strictly increasing full-model row indices
  std::vector<double> values;  ///< one dual per named row
  bool operator==(const SsqppDuals&) const = default;
};

/// A fractional solution of LP (9)-(14), in sorted-node coordinates.
struct FractionalSsqpp {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double objective = 0.0;            ///< Z* <= Delta_{f*}(v0)
  int num_nodes = 0;
  int universe_size = 0;
  int num_quorums = 0;
  std::vector<int> node_order;       ///< node_order[t] = original node id of v_t
  std::vector<double> sorted_distance;  ///< d_t = d(v0, v_t), non-decreasing
  std::vector<double> quorum_probability;  ///< p0(Q), copied from the strategy
  std::vector<double> x_tu;          ///< t-major: x_tu[t * |U| + u]
  std::vector<double> x_tq;          ///< t-major: x_tq[t * |Q| + q]
  /// Row duals of the last model solved, named by full-model row: with
  /// ssqpp_dual_bound (every column and those rows) they certify a lower
  /// bound on Z*.
  SsqppDuals duals;

  double xu(int t, int u) const {
    return x_tu[static_cast<std::size_t>(t) *
                    static_cast<std::size_t>(universe_size) +
                static_cast<std::size_t>(u)];
  }
  double xq(int t, int q) const {
    return x_tq[static_cast<std::size_t>(t) *
                    static_cast<std::size_t>(num_quorums) +
                static_cast<std::size_t>(q)];
  }

  /// Per-quorum fractional completion distance D_Q = sum_t d_t x_{tQ}
  /// (paper Claim 3.8); objective == sum_Q p(Q) D_Q.
  double quorum_distance(int q) const;
};

/// LP (9)-(14) of an instance, or a part of it, as an lp::Model.
/// Constraint (13) is enforced by omitting variables x_{tu} with
/// load(u) > cap(v_t). Full-model order: columns rank by rank (x_{tu} for
/// each u, then x_{tQ} for each Q); rows (10) per element, (11) per quorum,
/// (12) per rank some element fits on, then (14) per (Q, u in Q) and rank
/// t < n-1 (the t = n-1 row is implied by (10) and (11)).
struct SsqppLp {
  lp::Model model;
  /// False when some element fits on no node: the LP is infeasible and
  /// `model` is empty.
  bool element_fits = true;
  std::vector<int> var_tu;  ///< t-major model ids; -1 where not a column
  std::vector<int> var_tq;  ///< t-major model ids; -1 where not a column
};

/// The full LP (9)-(14).
SsqppLp build_ssqpp_lp(const SsqppInstance& instance);

/// Every column of LP (9)-(14) and only the rows named by their full-model
/// index in `rows`, in full-model order. Any named subset gives a
/// relaxation (every variable lies in [0, 1]), so its optimum, and
/// lp::dual_bound for any y, stay at most Z*. std::nullopt unless `rows` is
/// strictly increasing and names rows of the full model.
std::optional<SsqppLp> build_ssqpp_lp(const SsqppInstance& instance,
                                      const std::vector<int>& rows);

/// A lower bound on Z* from row duals, or the LP's infeasibility.
struct SsqppBound {
  /// False when some element fits on no node: the LP is infeasible and
  /// `value` is 0.
  bool element_fits = true;
  double value = 0.0;
};

/// lp::dual_bound(build_ssqpp_lp(instance, rows)->model, y), bit for bit,
/// computed by streaming the named rows from the generator that builds
/// that model, without building it. std::nullopt where that
/// build_ssqpp_lp is; element_fits is false where that model's is.
/// \throws std::invalid_argument unless y has one entry per named row.
std::optional<SsqppBound> ssqpp_dual_bound(const SsqppInstance& instance,
                                           const std::vector<int>& rows,
                                           const std::vector<double>& y);

/// What the relays of a Thm 1.2 sweep share (ssqpp_phase1_start): the
/// seeded model of one relay (build_seeded_ssqpp_lp) and phase 1 of it,
/// which the seed is, so lp::solve starts from it any model with its rows.
/// The seeded rows depend on the capacities in distance order, the element
/// loads and the quorum membership, not on the distances; solve_ssqpp_lp
/// takes the seed's rows object as its first model's rows (shared, not
/// rebuilt) when those three equal the seed's bit for bit, an O(n) compare.
/// Immutable, so the relays of a sweep may use it on any thread at once.
struct SsqppSeed : lp::Phase1 {
  SsqppLp lp;  ///< the seeding relay's seeded model
  std::vector<double> capacities;  ///< its capacities in distance order
  std::vector<double> element_loads;
  std::vector<quorum::Quorum> quorums;
};

/// Solves LP (9)-(14) on the rows and ranks its optimum uses. The first
/// model holds the columns of ranks t < m, where m is the shortest prefix of
/// the distance order whose capacity covers sum_u load(u) and that holds
/// each element's first rank where (13) admits it, and the (14) rows of
/// those ranks. After each cold solve, violated (14) rows are added and
/// the missing columns are priced with the row duals (0 on missing rows);
/// the ranks widen to cover those with negative reduced cost. It stops when
/// nothing is violated and nothing prices out, so x and Z* are an optimum
/// of the full LP; an infeasible model is widened to all n ranks before
/// kInfeasible is reported. The first model is build_seeded_ssqpp_lp(
/// instance, seed), which starts from `seed`'s phase 1 when its rows are the
/// seed's (lp::solve); the result is the same with any seed or none.
FractionalSsqpp solve_ssqpp_lp(const SsqppInstance& instance,
                               const lp::SimplexOptions& options = {},
                               const SsqppSeed* seed = nullptr);

/// The first model solve_ssqpp_lp(instance, options, seed) solves (its
/// "seed"). Its rows depend on the capacities in distance order, not on the
/// distances, so on uniform capacities every relay of a QPP instance has the
/// same rows. Where the seed's rows are this instance's (see SsqppSeed),
/// the model shares them under its own objective and columns; either way it
/// equals build_seeded_ssqpp_lp(instance) bit for bit.
SsqppLp build_seeded_ssqpp_lp(const SsqppInstance& instance,
                              const SsqppSeed* seed = nullptr);

/// The seed of `instance`: build_seeded_ssqpp_lp(instance) and
/// lp::solve_phase1 of it; std::nullopt when some element fits on no node
/// (there is no model).
std::optional<SsqppSeed> ssqpp_phase1_start(
    const SsqppInstance& instance, const lp::SimplexOptions& options = {});

/// The alpha-filtering of Sec 3.3.1: x~ is the largest solution with
/// x~_{tu} <= alpha * x_{tu} and cumulative mass <= 1, taken in increasing t
/// (mass moves toward the source). Applied to both x_{tu} and x_{tQ}.
/// Guarantees: per-column mass exactly 1; constraint (14) still holds;
/// support of x~_{tQ} only on nodes with d_t <= (alpha/(alpha-1)) D_Q.
/// \throws std::invalid_argument unless alpha > 1 and fractional is optimal.
FractionalSsqpp filter_fractional(const FractionalSsqpp& fractional,
                                  double alpha);

}  // namespace qp::core
