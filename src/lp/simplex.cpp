#include "lp/simplex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

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

/// The eta file of phase 1: per pivot (drive-out included) its column, its
/// rhs after scaling and the nonzeros of the scaled pivot row. That is all a
/// cost row needs to follow phase 1's pivots. The nonzeros fill blocks that
/// are each allocated once: one array grown by doubling would leave its old
/// copies on the heap below the start that outlives them, and on relay-lp
/// that raised peak RSS by more than the start's own size.
class Etas {
 public:
  void record(int pivot_col, double pivot_rhs, const int* nonzero,
              int num_nonzero, const double* pivot_row) {
    const auto count = static_cast<std::size_t>(num_nonzero);
    if (blocks_.empty() || blocks_.back().index.size() + count >
                               blocks_.back().index.capacity()) {
      Block& block = blocks_.emplace_back();
      block.index.reserve(std::max(kBlockEntries, count));
      block.value.reserve(std::max(kBlockEntries, count));
    }
    Block& block = blocks_.back();
    pivots_.push_back({pivot_col, pivot_rhs, blocks_.size() - 1,
                       block.index.size(), block.index.size() + count});
    for (std::size_t k = 0; k < count; ++k) {
      block.index.push_back(nonzero[k]);
      block.value.push_back(pivot_row[nonzero[k]]);
    }
  }

  /// Brings a cost row through every recorded pivot: Tableau::pivot's
  /// update_cost step, operation for operation, factor == 0.0 skip included.
  void replay(std::vector<double>& cost) const {
    const std::size_t objective = cost.size() - 1;
    for (const Pivot& pivot : pivots_) {
      const auto pivot_col = static_cast<std::size_t>(pivot.column);
      const double factor = cost[pivot_col];
      if (factor == 0.0) continue;
      const Block& block = blocks_[pivot.block];
      for (std::size_t k = pivot.begin; k < pivot.end; ++k) {
        cost[static_cast<std::size_t>(block.index[k])] -=
            factor * block.value[k];
      }
      cost[pivot_col] = 0.0;  // exact
      cost[objective] -= factor * pivot.rhs;
    }
  }

 private:
  static constexpr std::size_t kBlockEntries = 4096;
  struct Block {
    std::vector<int> index;
    std::vector<double> value;
  };
  struct Pivot {
    int column = 0;
    double rhs = 0.0;
    std::size_t block = 0;
    std::size_t begin = 0;  ///< entries [begin, end) of blocks_[block]
    std::size_t end = 0;
  };
  std::vector<Pivot> pivots_;
  std::vector<Block> blocks_;
};

}  // namespace

/// Phase 1 depends on the rows, the variable count and the options only;
/// `rows` keeps them for the equality check. When phase 1 reached a feasible
/// basis, the rest is the tableau T0 it left, its rhs, basis and dual
/// bookkeeping, and its eta file. T0 is kept as its nonzeros twice, row by
/// row and column by column (each about a tenth of the dense tableau on the
/// SSQPP relay LPs): a phase 2 from this start reads T0's pivot rows and
/// entering columns there and never copies it.
struct Phase1::State {
  std::vector<Constraint> rows;
  int num_variables = 0;
  SimplexOptions options;
  SolveStatus status = SolveStatus::kOptimal;
  std::int64_t iterations = 0;

  int cols = 0;
  int first_artificial = 0;
  /// Row i's nonzeros are entries [row_start[i], row_start[i+1]).
  std::vector<std::size_t> row_start;
  std::vector<int> column;
  std::vector<double> value;
  /// Column j's nonzeros, by row, are entries [col_start[j], col_start[j+1]).
  std::vector<std::size_t> col_start;
  std::vector<int> col_row;
  std::vector<double> col_value;
  std::vector<double> b;
  std::vector<int> basis;
  std::vector<int> dual_column;
  std::vector<double> dual_sign;
  Etas etas;

  /// Whether `model` solved with `model_options` runs exactly this phase 1.
  bool matches(const Model& model, const SimplexOptions& model_options) const {
    if (model_options != options || model.num_variables() != num_variables ||
        model.constraints().size() != rows.size()) {
      return false;
    }
    const auto same = [](double x, double y) {
      return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Constraint& mine = rows[i];
      const Constraint& theirs = model.constraints()[i];
      if (mine.relation != theirs.relation || !same(mine.rhs, theirs.rhs) ||
          mine.terms.size() != theirs.terms.size()) {
        return false;
      }
      for (std::size_t k = 0; k < mine.terms.size(); ++k) {
        if (mine.terms[k].first != theirs.terms[k].first ||
            !same(mine.terms[k].second, theirs.terms[k].second)) {
          return false;
        }
      }
    }
    return true;
  }
};

SolveStatus Phase1::status() const { return state_->status; }
std::int64_t Phase1::iterations() const { return state_->iterations; }

namespace {

/// One column of a tableau: entry i is data[i * stride].
struct Column {
  const double* data;
  std::size_t stride;
  double operator[](int i) const {
    return data[static_cast<std::size_t>(i) * stride];
  }
};

/// What the cold Tableau and Phase2FromStart share: the rhs, the basis, the
/// phase-2 cost row, the dual bookkeeping and the simplex loop itself
/// (Dantzig pricing, the ratio test, the Bland fallback). `Table` supplies
/// the tableau: column(e) views column e of the current tableau, and
/// pivot(r, c), called right after column(c), pivots on (r, c) and updates
/// b_, basis_ and the live cost rows.
template <class Table>
class Simplex {
 public:
  /// Basis changes performed, including drive_out_artificials() pivots (so
  /// it can exceed the iteration count on degenerate phase-1 exits).
  std::int64_t pivots() const { return pivots_; }

  /// Phase 2 from the feasible basis phase 1 left: minimizes the true
  /// objective, artificials barred from entering, counting on from
  /// phase 1's `iterations`.
  Solution phase2(std::int64_t iterations) {
    Solution solution;
    solution.iterations = iterations;
    solution.status = iterate(cost2_, /*allow_artificial=*/false,
                              solution.iterations);
    if (solution.status != SolveStatus::kOptimal) return solution;
    solution.objective = -cost2_[static_cast<std::size_t>(cols_)];
    solution.values.assign(static_cast<std::size_t>(num_structural_), 0.0);
    for (int i = 0; i < rows_; ++i) {
      const int bv = basis_[static_cast<std::size_t>(i)];
      if (bv < num_structural_) {
        solution.values[static_cast<std::size_t>(bv)] =
            std::max(0.0, b_[static_cast<std::size_t>(i)]);
      }
      duals_[static_cast<std::size_t>(i)] *= cost2_[static_cast<std::size_t>(
          dual_column_[static_cast<std::size_t>(i)])];
    }
    solution.duals = std::move(duals_);
    return solution;
  }

 protected:
  Simplex(const SimplexOptions& options, int num_structural, int rows)
      : options_(options), num_structural_(num_structural), rows_(rows) {}

  /// Phase-2 cost row: reduced costs of the all-slack/artificial basis are
  /// just the raw objective (basic variables all have zero true cost).
  std::vector<double> initial_cost2(const Model& model) const {
    std::vector<double> cost(static_cast<std::size_t>(cols_) + 1, 0.0);
    for (int j = 0; j < num_structural_; ++j) {
      cost[static_cast<std::size_t>(j)] =
          model.objective()[static_cast<std::size_t>(j)];
    }
    return cost;
  }

  /// Runs simplex iterations against the given cost row.
  SolveStatus iterate(std::vector<double>& cost, bool allow_artificial,
                      std::int64_t& iterations) {
    Table& table = static_cast<Table&>(*this);
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
      const Column column = table.column(entering);
      int leaving = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < rows_; ++i) {
        const double coeff = column[i];
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

      table.pivot(leaving, entering);

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

  /// Row i's rhs after a pivot whose pivot column holds `factor` != 0.0 in
  /// row i, with near-zero results snapped to 0.0.
  void update_rhs(int i, double factor, double pivot_rhs) {
    double& rhs = b_[static_cast<std::size_t>(i)];
    rhs -= factor * pivot_rhs;
    if (std::abs(rhs) < options_.epsilon) rhs = 0.0;
  }

  SimplexOptions options_;
  int num_structural_ = 0;
  int rows_ = 0;
  int cols_ = 0;
  int first_artificial_ = 0;
  std::int64_t pivots_ = 0;
  std::vector<double> b_;
  std::vector<double> cost2_;
  std::vector<int> basis_;
  std::vector<int> dual_column_;  ///< per row: slack or artificial column
  /// Per row: the sign that turns dual_column_'s final cost2_ entry into
  /// the row's dual; phase2() scales it into the dual itself.
  std::vector<double> duals_;
};

/// Dense two-phase tableau. Row-major matrix `a` of size rows x cols, the
/// right-hand side `b`, and two running cost rows (phase 1 and phase 2),
/// each of length cols + 1 with the final entry holding -objective. `a`
/// comes zeroed from std::calloc and is written only where an entry is or
/// was nonzero, so the OS backs just those pages with memory: a page that
/// never holds a nonzero is never resident (most of the Thm 5.1 GAP LP's).
class Tableau : public Simplex<Tableau> {
 public:
  Tableau(const Model& model, const SimplexOptions& options)
      : Simplex(options, model.num_variables(), model.num_constraints()) {
    build(model);
  }

  /// Phase 1: minimizes the sum of the artificials, then drives them out of
  /// the basis. kOptimal when that reaches a feasible basis. Given `etas`,
  /// every later pivot of this tableau appends its eta there (solve_phase1,
  /// which runs no phase 2 on it).
  SolveStatus phase1(std::int64_t& iterations, Etas* etas = nullptr) {
    if (num_artificial_ == 0) return SolveStatus::kOptimal;
    etas_ = etas;
    const SolveStatus status =
        iterate(cost1_, /*allow_artificial=*/true, iterations);
    if (status == SolveStatus::kIterationLimit) return status;
    // Unbounded is impossible in phase 1 (objective bounded below by 0).
    const double infeasibility = -cost1_[static_cast<std::size_t>(cols_)];
    if (infeasibility > options_.epsilon * (1.0 + rhs_scale_)) {
      return SolveStatus::kInfeasible;
    }
    in_phase1_ = false;
    drive_out_artificials();
    return SolveStatus::kOptimal;
  }

  /// Copies what phase 2 starts from into `state`: the tableau's nonzeros
  /// by row and by column, the rhs, the basis and the dual columns and
  /// signs.
  void save(Phase1::State& state) const {
    state.cols = cols_;
    state.first_artificial = first_artificial_;
    // Both scans of the dense tableau run without a branch on the entries
    // (most are zero, and which is hard to predict), so the copy writes one
    // past the last nonzero at worst: the arrays get one spare slot.
    std::size_t nonzeros = 0;
    const std::size_t size =
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
    for (std::size_t k = 0; k < size; ++k) nonzeros += a_[k] != 0.0 ? 1U : 0U;
    state.column.resize(nonzeros + 1);
    state.value.resize(nonzeros + 1);
    state.row_start.resize(static_cast<std::size_t>(rows_) + 1);
    std::size_t count = 0;
    for (int i = 0; i < rows_; ++i) {
      state.row_start[static_cast<std::size_t>(i)] = count;
      const double* row_data = &a_[static_cast<std::size_t>(i) *
                                   static_cast<std::size_t>(cols_)];
      for (int j = 0; j < cols_; ++j) {
        state.column[count] = j;
        state.value[count] = row_data[j];
        count += row_data[j] != 0.0 ? 1U : 0U;
      }
    }
    state.row_start[static_cast<std::size_t>(rows_)] = count;
    state.column.resize(nonzeros);
    state.value.resize(nonzeros);
    // The column-wise copy, by a counting sort of the row-wise one.
    state.col_start.assign(static_cast<std::size_t>(cols_) + 1, 0);
    for (const int j : state.column) {
      ++state.col_start[static_cast<std::size_t>(j) + 1];
    }
    for (int j = 0; j < cols_; ++j) {
      state.col_start[static_cast<std::size_t>(j) + 1] +=
          state.col_start[static_cast<std::size_t>(j)];
    }
    state.col_row.resize(nonzeros);
    state.col_value.resize(nonzeros);
    std::vector<std::size_t> next(state.col_start.begin(),
                                  state.col_start.end() - 1);
    for (int i = 0; i < rows_; ++i) {
      for (std::size_t k = state.row_start[static_cast<std::size_t>(i)];
           k < state.row_start[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::size_t slot =
            next[static_cast<std::size_t>(state.column[k])]++;
        state.col_row[slot] = i;
        state.col_value[slot] = state.value[k];
      }
    }
    state.b = b_;
    state.basis = basis_;
    state.dual_column = dual_column_;
    state.dual_sign = duals_;
  }

 private:
  friend class Simplex<Tableau>;

  double* row(int r) {
    return &a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_)];
  }
  double at(int r, int c) const {
    return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(c)];
  }
  Column column(int c) const {
    return {&a_[static_cast<std::size_t>(c)], static_cast<std::size_t>(cols_)};
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
    // duals_ outlives the tableau (phase2() moves it out), so it is allocated
    // before a_: a long-lived block behind a_ would keep a_'s memory from
    // being reused by the next solve on this thread.
    duals_.resize(static_cast<std::size_t>(rows_));
    dual_column_.resize(static_cast<std::size_t>(rows_));
    a_.reset(static_cast<double*>(std::calloc(
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_),
        sizeof(double))));
    if (a_ == nullptr) throw std::bad_alloc();
    nonzero_.resize(static_cast<std::size_t>(cols_));
    basis_.assign(static_cast<std::size_t>(rows_), -1);

    // Second pass: sum each row's terms straight into the tableau, negated
    // where the rhs was, then add its slack and artificial columns. Rounding
    // is symmetric, so summing -coeff gives the negated sum up to the sign
    // of a zero, and no column the row leaves at zero is written.
    int next_slack = num_structural_;
    int next_artificial = first_artificial_;
    for (int i = 0; i < rows_; ++i) {
      const Constraint& c = constraints[static_cast<std::size_t>(i)];
      double* row_data = row(i);
      const bool negated = c.rhs < 0.0;
      for (const auto& [var, coeff] : c.terms) {
        row_data[var] += negated ? -coeff : coeff;
      }
      // With y = c_B B^-1, a column of +1 in row i (a <= slack or an
      // artificial) ends with reduced cost -y_i, the >= slack's -1 with
      // +y_i; a negated row's dual changes sign once more.
      double dual_sign = negated ? 1.0 : -1.0;
      switch (relation[static_cast<std::size_t>(i)]) {
        case Relation::kLessEqual:
          row_data[next_slack] = 1.0;
          dual_column_[static_cast<std::size_t>(i)] = next_slack;
          basis_[static_cast<std::size_t>(i)] = next_slack++;
          break;
        case Relation::kGreaterEqual:
          row_data[next_slack] = -1.0;
          dual_column_[static_cast<std::size_t>(i)] = next_slack++;
          dual_sign = -dual_sign;
          row_data[next_artificial] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
        case Relation::kEqual:
          row_data[next_artificial] = 1.0;
          dual_column_[static_cast<std::size_t>(i)] = next_artificial;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
      }
      duals_[static_cast<std::size_t>(i)] = dual_sign;
    }

    cost2_ = initial_cost2(model);
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

  /// Pivots on (pivot_row, pivot_col), updating the live cost rows. A
  /// read-only scan collects the pivot row's nonzero columns; only those are
  /// scaled (any that underflow to zero are dropped), and every other row
  /// and cost row is updated on them only. A skipped column has a pivot-row
  /// entry of exactly 0.0, where x - f * 0.0 == x and 0.0 * inverse == 0.0,
  /// so the result equals the dense update up to the sign of a zero, which
  /// no comparison or division reads, and no zero is ever written back.
  void pivot(int pivot_row, int pivot_col) {
    double* pivot_row_data = row(pivot_row);
    const double inverse = 1.0 / pivot_row_data[pivot_col];
    int* nonzero = nonzero_.data();
    int num_found = 0;
    for (int j = 0; j < cols_; ++j) {
      nonzero[num_found] = j;
      num_found += pivot_row_data[j] != 0.0 ? 1 : 0;
    }
    int num_nonzero = 0;
    for (int k = 0; k < num_found; ++k) {
      const int j = nonzero[k];
      pivot_row_data[j] *= inverse;
      nonzero[num_nonzero] = j;
      num_nonzero += pivot_row_data[j] != 0.0 ? 1 : 0;
    }
    pivot_row_data[pivot_col] = 1.0;  // exact
    b_[static_cast<std::size_t>(pivot_row)] *= inverse;

    const double pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];
    if (etas_ != nullptr) {
      etas_->record(pivot_col, pivot_rhs, nonzero, num_nonzero, pivot_row_data);
    }
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
      update_rhs(i, factor, pivot_rhs);
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

  int num_artificial_ = 0;
  double rhs_scale_ = 0.0;
  bool in_phase1_ = false;
  Etas* etas_ = nullptr;  ///< where pivots record their etas, if anywhere
  struct Free {
    void operator()(double* data) const { std::free(data); }
  };
  std::unique_ptr<double[], Free> a_;  ///< rows_ x cols_, from std::calloc
  std::vector<double> cost1_;
  std::vector<int> nonzero_;  ///< pivot-row nonzero columns, scratch
};

/// Phase 2 from a Phase1::State without a tableau of its own. It owns b, the
/// basis, the phase-2 cost row (brought through phase 1 by replaying the
/// start's eta file) and an eta file of its own pivots, and reads the
/// start's tableau T0 in place. Phase 2 reads only one column per iteration
/// (the ratio test) and one row per pivot; both are rebuilt from T0 and the
/// etas by repeating Tableau::pivot's operations on those entries in order,
/// with its exact 1.0 and 0.0 writes and its skips of exact zeros, so every
/// entry read equals the cold tableau's. For p phase-2 pivots that costs
/// O(p * rows + p^2 * nnz), nnz the nonzeros of one eta.
class Phase2FromStart : public Simplex<Phase2FromStart> {
 public:
  Phase2FromStart(const Phase1::State& start, const Model& model)
      : Simplex(start.options, start.num_variables,
                static_cast<int>(start.rows.size())),
        start_(start) {
    cols_ = start.cols;
    first_artificial_ = start.first_artificial;
    duals_ = start.dual_sign;  // first: it outlives the rest (see build())
    dual_column_ = start.dual_column;
    b_ = start.b;
    basis_ = start.basis;
    cost2_ = initial_cost2(model);
    start.etas.replay(cost2_);
    last_eta_.assign(static_cast<std::size_t>(rows_), -1);
    column_.resize(static_cast<std::size_t>(rows_));
    row_.resize(static_cast<std::size_t>(cols_));
    nonzero_.resize(static_cast<std::size_t>(std::max(rows_, cols_)));
  }

 private:
  friend class Simplex<Phase2FromStart>;

  /// One pivot: its row and column, the inverse of its pivot element, and
  /// entries [row_begin, row_end) of row_entries_ (the scaled pivot row's
  /// nonzeros) and [factor_begin, factor_end) of factors_ (the pivot
  /// column's nonzeros before the pivot, pivot row excluded, by row).
  struct Eta {
    int row = 0;
    int column = 0;
    double inverse = 0.0;
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
    std::size_t factor_begin = 0;
    std::size_t factor_end = 0;
  };
  struct Entry {
    int index = 0;
    double value = 0.0;
  };

  /// Column c of the current tableau: T0's column c, brought through every
  /// eta as Tableau::pivot updates it.
  Column column(int c) {
    std::ranges::fill(column_, 0.0);
    for (std::size_t k = start_.col_start[static_cast<std::size_t>(c)];
         k < start_.col_start[static_cast<std::size_t>(c) + 1]; ++k) {
      column_[static_cast<std::size_t>(start_.col_row[k])] =
          start_.col_value[k];
    }
    for (const Eta& eta : etas_) {
      const bool pivot_column = c == eta.column;
      double& pivot_entry = column_[static_cast<std::size_t>(eta.row)];
      pivot_entry = pivot_column ? 1.0 : pivot_entry * eta.inverse;
      const double scaled = pivot_entry;
      if (scaled == 0.0) continue;  // not among the pivot row's nonzeros
      for (std::size_t k = eta.factor_begin; k < eta.factor_end; ++k) {
        double& entry = column_[static_cast<std::size_t>(factors_[k].index)];
        entry = pivot_column ? 0.0 : entry - factors_[k].value * scaled;
      }
    }
    column_of_ = c;
    return {column_.data(), 1};
  }

  /// Row r of the current tableau, into row_: from r's last scaled pivot
  /// row if it was a pivot row, else from T0's row r, through every later
  /// eta whose pivot column is nonzero in row r.
  void rebuild_row(int r) {
    std::ranges::fill(row_, 0.0);
    const int last = last_eta_[static_cast<std::size_t>(r)];
    if (last >= 0) {
      const Eta& eta = etas_[static_cast<std::size_t>(last)];
      for (std::size_t k = eta.row_begin; k < eta.row_end; ++k) {
        row_[static_cast<std::size_t>(row_entries_[k].index)] =
            row_entries_[k].value;
      }
    } else {
      for (std::size_t k = start_.row_start[static_cast<std::size_t>(r)];
           k < start_.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
        row_[static_cast<std::size_t>(start_.column[k])] = start_.value[k];
      }
    }
    for (std::size_t l = static_cast<std::size_t>(last + 1); l < etas_.size();
         ++l) {
      const Eta& eta = etas_[l];
      const auto first = factors_.begin() +
                         static_cast<std::ptrdiff_t>(eta.factor_begin);
      const auto end =
          factors_.begin() + static_cast<std::ptrdiff_t>(eta.factor_end);
      const auto factor = std::lower_bound(
          first, end, r,
          [](const Entry& entry, int row) { return entry.index < row; });
      if (factor == end || factor->index != r) continue;
      for (std::size_t k = eta.row_begin; k < eta.row_end; ++k) {
        row_[static_cast<std::size_t>(row_entries_[k].index)] -=
            factor->value * row_entries_[k].value;
      }
      row_[static_cast<std::size_t>(eta.column)] = 0.0;  // exact
    }
  }

  /// Tableau::pivot on the rebuilt row and column, recording the eta
  /// instead of updating the other rows.
  void pivot(int pivot_row, int pivot_col) {
    QP_INVARIANT(column_of_ == pivot_col,
                 "a pivot follows the ratio test on its own column");
    rebuild_row(pivot_row);
    QP_INVARIANT(row_[static_cast<std::size_t>(pivot_col)] ==
                     column_[static_cast<std::size_t>(pivot_row)],
                 "the rebuilt pivot row and column must meet in one value");
    const double inverse = 1.0 / row_[static_cast<std::size_t>(pivot_col)];
    Eta eta{pivot_row, pivot_col, inverse, row_entries_.size(), 0,
            factors_.size(), 0};
    // Both scans collect their nonzeros without a branch, as Tableau::pivot
    // does: most entries are zero, and which is hard to predict.
    int* nonzero = nonzero_.data();
    int num_nonzero = 0;
    for (int j = 0; j < cols_; ++j) {
      row_[static_cast<std::size_t>(j)] *= inverse;
      nonzero[num_nonzero] = j;
      num_nonzero += row_[static_cast<std::size_t>(j)] != 0.0 ? 1 : 0;
    }
    row_[static_cast<std::size_t>(pivot_col)] = 1.0;  // exact
    for (int k = 0; k < num_nonzero; ++k) {
      row_entries_.push_back(
          {nonzero[k], row_[static_cast<std::size_t>(nonzero[k])]});
    }
    eta.row_end = row_entries_.size();
    b_[static_cast<std::size_t>(pivot_row)] *= inverse;

    const double pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];
    column_[static_cast<std::size_t>(pivot_row)] = 0.0;  // not a factor
    num_nonzero = 0;
    for (int i = 0; i < rows_; ++i) {
      nonzero[num_nonzero] = i;
      num_nonzero += column_[static_cast<std::size_t>(i)] != 0.0 ? 1 : 0;
    }
    for (int k = 0; k < num_nonzero; ++k) {
      const double factor = column_[static_cast<std::size_t>(nonzero[k])];
      factors_.push_back({nonzero[k], factor});
      update_rhs(nonzero[k], factor, pivot_rhs);
    }
    eta.factor_end = factors_.size();
    const double factor = cost2_[static_cast<std::size_t>(pivot_col)];
    if (factor != 0.0) {
      for (std::size_t k = eta.row_begin; k < eta.row_end; ++k) {
        cost2_[static_cast<std::size_t>(row_entries_[k].index)] -=
            factor * row_entries_[k].value;
      }
      cost2_[static_cast<std::size_t>(pivot_col)] = 0.0;  // exact
      cost2_[static_cast<std::size_t>(cols_)] -= factor * pivot_rhs;
    }
    last_eta_[static_cast<std::size_t>(pivot_row)] =
        static_cast<int>(etas_.size());
    etas_.push_back(eta);
    basis_[static_cast<std::size_t>(pivot_row)] = pivot_col;
    ++pivots_;
    column_of_ = -1;  // the pivot changed every column
  }

  const Phase1::State& start_;
  std::vector<Eta> etas_;
  std::vector<Entry> row_entries_;
  std::vector<Entry> factors_;
  std::vector<int> last_eta_;  ///< per row: its last eta as pivot row, or -1
  std::vector<double> column_;  ///< column column_of_, dense, scratch
  int column_of_ = -1;
  std::vector<double> row_;  ///< the pivot row, dense, scratch
  std::vector<int> nonzero_;  ///< nonzero entries of row_ or column_, scratch
};

}  // namespace

Phase1 solve_phase1(const Model& model, const SimplexOptions& options) {
  QP_SPAN("lp.phase1");
  auto state = std::make_shared<Phase1::State>();
  state->rows = model.constraints();
  state->num_variables = model.num_variables();
  state->options = options;
  if (model.num_constraints() > 0) {
    Tableau tableau(model, options);
    state->status = tableau.phase1(state->iterations, &state->etas);
    if (state->status == SolveStatus::kOptimal) {
      tableau.save(*state);
    } else {
      state->etas = {};  // nothing starts from a failed phase 1
    }
    QP_COUNTER_ADD("lp.iterations", state->iterations);
    QP_COUNTER_ADD("lp.pivots", tableau.pivots());
  }
  Phase1 start;
  start.state_ = std::move(state);
  return start;
}

Solution solve(const Model& model, const SimplexOptions& options,
               const Phase1* start) {
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
  const Phase1::State* replayed =
      start != nullptr && start->state_->matches(model, options)
          ? start->state_.get()
          : nullptr;
  Solution solution;
  std::int64_t pivots = 0;
  if (replayed != nullptr) {
    QP_COUNTER_ADD("lp.phase1_reused", 1);
    solution.status = replayed->status;
    solution.iterations = replayed->iterations;
    if (solution.status == SolveStatus::kOptimal) {
      Phase2FromStart phase2(*replayed, model);
      solution = phase2.phase2(solution.iterations);
      pivots = phase2.pivots();
    }
  } else {
    Tableau tableau(model, options);
    solution.status = tableau.phase1(solution.iterations);
    if (solution.status == SolveStatus::kOptimal) {
      solution = tableau.phase2(solution.iterations);
    }
    pivots = tableau.pivots();
  }
  // Flushed once per solve; pivot selection is deterministic (Dantzig with a
  // Bland fallback, fixed tie-breaks), so these totals are reproducible. A
  // replayed phase 1 was counted once, by solve_phase1.
  QP_COUNTER_ADD("lp.iterations",
                 solution.iterations -
                     (replayed != nullptr ? replayed->iterations : 0));
  QP_COUNTER_ADD("lp.pivots", pivots);
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
