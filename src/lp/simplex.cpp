#include "lp/simplex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <utility>

#include "check/contracts.hpp"
#include "exec/parallel.hpp"
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

/// One nonzero of a packed row or column: its column or row, and its value.
/// No default member initializers: Tableau::save packs into blocks of them
/// that are never initialized, so it writes each entry once.
struct Entry {
  int index;
  double value;
};

/// One pivot on (row, column): the inverse of its pivot element, the pivot
/// row's rhs after scaling, the scaled pivot row's nonzeros by column
/// (exactly 1.0 at the pivot column) and, for a phase-2 pivot from a start,
/// the pivot column's nonzeros before the pivot, pivot row excluded, by row.
struct Eta {
  int row = 0;
  int column = 0;
  double inverse = 0.0;
  double rhs = 0.0;
  std::span<const Entry> pivot_row;
  std::span<const Entry> factors;
};

/// Brings a dense row through the pivot `eta`, as every pivot updates its
/// other rows and its cost rows: with the row's pivot-column entry as the
/// factor, row -= factor * (scaled pivot row), exactly 0.0 at the pivot
/// column, and rhs -= factor * eta.rhs, where `rhs` is the row's entry of b
/// or a cost row's objective entry. A row whose factor is exactly 0.0 is
/// left as it is.
void eliminate(const Eta& eta, double* row, double& rhs) {
  const double factor = row[eta.column];
  if (factor == 0.0) return;
  for (const Entry& entry : eta.pivot_row) {
    row[entry.index] -= factor * entry.value;
  }
  row[eta.column] = 0.0;  // exact
  rhs -= factor * eta.rhs;
}

/// Etas in pivot order. Their entries fill blocks that are each allocated
/// once: one array grown by doubling would leave its old copies on the heap
/// below the start that outlives them, and on relay-lp that raised peak RSS
/// by more than the start's own size. The etas' spans point into the blocks,
/// so a file can be moved but not copied.
class EtaFile {
 public:
  EtaFile() = default;
  EtaFile(EtaFile&&) = default;
  EtaFile& operator=(EtaFile&&) = default;

  /// Appends `eta`, its entries copied into the file, and returns the copy.
  const Eta& add(Eta eta) {
    eta.pivot_row = keep(eta.pivot_row);
    eta.factors = keep(eta.factors);
    return etas_.emplace_back(eta);
  }
  std::size_t size() const { return etas_.size(); }
  const Eta& operator[](std::size_t k) const { return etas_[k]; }
  auto begin() const { return etas_.begin(); }
  auto end() const { return etas_.end(); }

 private:
  static constexpr std::size_t kBlockEntries = 4096;

  std::span<const Entry> keep(std::span<const Entry> entries) {
    if (entries.empty()) return {};
    if (blocks_.empty() || blocks_.back().size() + entries.size() >
                               blocks_.back().capacity()) {
      blocks_.emplace_back().reserve(std::max(kBlockEntries, entries.size()));
    }
    std::vector<Entry>& block = blocks_.back();
    block.insert(block.end(), entries.begin(), entries.end());
    return {block.end() - static_cast<std::ptrdiff_t>(entries.size()),
            block.end()};
  }

  std::vector<Eta> etas_;
  std::vector<std::vector<Entry>> blocks_;
};

}  // namespace

/// Phase 1 depends on the rows, the variable count and the options only;
/// `model` keeps them for the match: a copy of the model phase 1 was solved
/// for, which shares its rows instead of copying them, so a model that
/// shares them too is matched by their address. When phase 1 reached a
/// feasible basis, the rest is the tableau T0 it left, its rhs, basis and
/// dual bookkeeping, and its eta file. T0 is kept as its nonzeros twice, row
/// by row and column by column (each about a tenth of the dense tableau on
/// the SSQPP relay LPs): a phase 2 from this start reads T0's pivot rows and
/// entering columns there and never copies it.
struct Phase1::State {
  Model model;
  SimplexOptions options;
  SolveStatus status = SolveStatus::kOptimal;
  std::int64_t iterations = 0;

  int cols = 0;
  int first_artificial = 0;
  /// Row i's nonzeros, by column, are row_entries[row_start[i] ..
  /// row_start[i+1]); column j's, by row, col_entries[col_start[j] ..
  /// col_start[j+1]).
  std::vector<std::size_t> row_start;
  std::vector<Entry> row_entries;
  std::vector<std::size_t> col_start;
  std::vector<Entry> col_entries;
  std::vector<double> b;
  std::vector<int> basis;
  std::vector<int> dual_column;
  std::vector<double> dual_sign;
  EtaFile etas;

  std::span<const Entry> row(int i) const {
    return slice(row_entries, row_start, i);
  }
  std::span<const Entry> column(int j) const {
    return slice(col_entries, col_start, j);
  }
  static std::span<const Entry> slice(const std::vector<Entry>& entries,
                                      const std::vector<std::size_t>& start,
                                      int k) {
    const auto at = static_cast<std::size_t>(k);
    return {entries.data() + start[at], start[at + 1] - start[at]};
  }

  /// Whether `other` solved with `other_options` runs exactly this phase 1:
  /// its rows are this model's, the same object or equal bit for bit.
  bool matches(const Model& other, const SimplexOptions& other_options) const {
    const std::vector<Constraint>& rows = model.constraints();
    if (other_options != options ||
        other.num_variables() != model.num_variables() ||
        other.constraints().size() != rows.size()) {
      return false;
    }
    if (&other.constraints() == &rows) return true;  // shared rows
    const auto same = [](double x, double y) {
      return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Constraint& mine = rows[i];
      const Constraint& theirs = other.constraints()[i];
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

  /// Scales the pivot row `data` by `inverse` in place, exactly 1.0 at
  /// `pivot_col`, and packs its nonzeros into packed_row_ (an entry that
  /// underflows to zero is dropped). Only the nonzeros are scaled: a skipped
  /// column holds exactly 0.0, where x - f * 0.0 == x, so the eliminations
  /// the packed row feeds equal the dense update up to the sign of a zero,
  /// which no comparison or division reads. Both scans run without a branch
  /// on the entries: most are zero, and which is hard to predict.
  std::span<const Entry> pack_pivot_row(double* data, int pivot_col,
                                        double inverse) {
    Entry* packed = packed_row_.data();
    int num_found = 0;
    for (int j = 0; j < cols_; ++j) {
      packed[num_found].index = j;
      num_found += data[j] != 0.0 ? 1 : 0;
    }
    std::size_t count = 0;
    for (int k = 0; k < num_found; ++k) {
      const int j = packed[k].index;
      data[j] = j == pivot_col ? 1.0 : data[j] * inverse;  // exact 1.0
      packed[count] = {j, data[j]};
      count += data[j] != 0.0 ? 1U : 0U;
    }
    return {packed, count};
  }

  /// Snaps a row's rhs that a pivot left within epsilon of 0.0 to 0.0.
  void snap(double& rhs) const {
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
  std::vector<Entry> packed_row_;  ///< the scaled pivot row, packed, scratch
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
  SolveStatus phase1(std::int64_t& iterations, EtaFile* etas = nullptr) {
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
    // One pass over the dense tableau packs its rows into blocks, each
    // allocated once and left uninitialized; the row-wise copy is then
    // taken from them at its exact size. pack() writes one past a row's
    // last nonzero at worst, so a row starts a new block unless cols_ + 1
    // entries are free in the last one.
    const auto cols = static_cast<std::size_t>(cols_);
    const std::size_t block_size = std::max(kSaveBlockEntries, cols + 1);
    std::vector<std::unique_ptr<Entry[]>> blocks;
    std::vector<std::span<const Entry>> packed(static_cast<std::size_t>(rows_));
    std::size_t used = block_size;
    std::size_t nonzeros = 0;
    for (int i = 0; i < rows_; ++i) {
      if (block_size - used < cols + 1) {
        blocks.push_back(std::make_unique_for_overwrite<Entry[]>(block_size));
        used = 0;
      }
      Entry* out = blocks.back().get() + used;
      const std::size_t count = pack(row(i), out);
      packed[static_cast<std::size_t>(i)] = {out, count};
      used += count;
      nonzeros += count;
    }
    state.row_entries.reserve(nonzeros);
    state.row_start.resize(static_cast<std::size_t>(rows_) + 1);
    for (int i = 0; i < rows_; ++i) {
      state.row_start[static_cast<std::size_t>(i)] = state.row_entries.size();
      state.row_entries.insert(state.row_entries.end(),
                               packed[static_cast<std::size_t>(i)].begin(),
                               packed[static_cast<std::size_t>(i)].end());
    }
    state.row_start[static_cast<std::size_t>(rows_)] = nonzeros;
    blocks.clear();  // before the column-wise copy, which may reuse them
    // The column-wise copy, by a counting sort of the row-wise one.
    state.col_start.assign(static_cast<std::size_t>(cols_) + 1, 0);
    for (const Entry& entry : state.row_entries) {
      ++state.col_start[static_cast<std::size_t>(entry.index) + 1];
    }
    for (int j = 0; j < cols_; ++j) {
      state.col_start[static_cast<std::size_t>(j) + 1] +=
          state.col_start[static_cast<std::size_t>(j)];
    }
    state.col_entries.resize(nonzeros);
    std::vector<std::size_t> next(state.col_start.begin(),
                                  state.col_start.end() - 1);
    for (int i = 0; i < rows_; ++i) {
      for (const Entry& entry : state.row(i)) {
        state.col_entries[next[static_cast<std::size_t>(entry.index)]++] = {
            i, entry.value};
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
  const double* row(int r) const {
    return &a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_)];
  }

  /// Packs the nonzeros of the dense row `data` into `out`, by column, and
  /// returns their count. A run of four entries that are all zero is
  /// skipped with one test; the entries of any other run are packed without
  /// a branch on them (which are zero is hard to predict), which writes one
  /// entry past the last nonzero at worst. Both tests read an entry's bits
  /// without the sign bit, which are 0 exactly where x != 0.0 is false
  /// (0.0 and -0.0; a NaN is nonzero): half the time of comparing doubles.
  std::size_t pack(const double* data, Entry* out) const {
    const auto magnitude = [&](int j) {
      return std::bit_cast<std::uint64_t>(data[j]) << 1U;
    };
    std::size_t count = 0;
    const auto pack_one = [&](int j) {
      const std::uint64_t bits = magnitude(j);
      out[count] = {j, data[j]};
      count += bits != 0 ? 1U : 0U;
    };
    int j = 0;
    for (; j + 4 <= cols_; j += 4) {
      if ((magnitude(j) | magnitude(j + 1) | magnitude(j + 2) |
           magnitude(j + 3)) == 0) {
        continue;
      }
      for (int k = j; k < j + 4; ++k) pack_one(k);
    }
    for (; j < cols_; ++j) pack_one(j);
    return count;
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
    packed_row_.resize(static_cast<std::size_t>(cols_));
    updated_.resize(static_cast<std::size_t>(rows_));
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

  /// Pivots on (pivot_row, pivot_col), updating the live cost rows: packs
  /// the scaled pivot row, records it when phase 1 is being kept, and
  /// brings every other row and cost row through it by eliminate(). The
  /// other rows are updated on the exec pool when there are enough entries
  /// to update (kPooledUpdates), else in a loop, by the same per-row body.
  void pivot(int pivot_row, int pivot_col) {
    double* pivot_row_data = row(pivot_row);
    const double inverse = 1.0 / pivot_row_data[pivot_col];
    double& pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];
    pivot_rhs *= inverse;
    const Eta eta{pivot_row, pivot_col, inverse, pivot_rhs,
                  pack_pivot_row(pivot_row_data, pivot_col, inverse), {}};
    if (etas_ != nullptr) etas_->add(eta);
    // The rows to update: every other row whose pivot-column entry is
    // nonzero. Each reads only the packed pivot row and writes only itself
    // and its rhs, so a row sees the same operations in the same order
    // whether the rows run in a loop or as items of exec::parallel_for.
    int* updated = updated_.data();
    int num_updated = 0;
    for (int i = 0; i < rows_; ++i) {
      updated[num_updated] = i;
      num_updated += i != pivot_row && at(i, pivot_col) != 0.0 ? 1 : 0;
    }
    const auto update_row = [&](std::size_t k) {
      const int i = updated[k];
      double& rhs = b_[static_cast<std::size_t>(i)];
      eliminate(eta, row(i), rhs);
      snap(rhs);
    };
    const auto count = static_cast<std::size_t>(num_updated);
    if (count * eta.pivot_row.size() >= kPooledUpdates) {
      exec::parallel_for(count, update_row);
    } else {
      for (std::size_t k = 0; k < count; ++k) update_row(k);
    }
    // Nothing reads cost1_ once phase 1 has ended.
    const auto objective = static_cast<std::size_t>(cols_);
    if (in_phase1_) eliminate(eta, cost1_.data(), cost1_[objective]);
    eliminate(eta, cost2_.data(), cost2_[objective]);
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

  /// Entry updates (rows x pivot-row nonzeros) from which a pivot's row
  /// elimination runs on the exec pool: below it the dispatch costs more
  /// than it saves, and the small LPs (the SSQPP relay LPs, the GAP LPs of
  /// small instances) make no exec call at all.
  static constexpr std::size_t kPooledUpdates = std::size_t{1} << 15;
  /// Entries of one of save()'s temporary blocks (64 KiB), as in EtaFile.
  static constexpr std::size_t kSaveBlockEntries = 4096;

  int num_artificial_ = 0;
  double rhs_scale_ = 0.0;
  bool in_phase1_ = false;
  EtaFile* etas_ = nullptr;  ///< where pivots record their etas, if anywhere
  struct Free {
    void operator()(double* data) const { std::free(data); }
  };
  std::unique_ptr<double[], Free> a_;  ///< rows_ x cols_, from std::calloc
  std::vector<double> cost1_;
  std::vector<int> updated_;  ///< rows a pivot updates, scratch
};

/// Phase 2 from a Phase1::State without a tableau of its own. It owns b, the
/// basis, the phase-2 cost row (brought through phase 1 by eliminating it
/// through the start's eta file) and an eta file of its own pivots, and
/// reads the start's tableau T0 in place. Phase 2 reads only one column per
/// iteration (the ratio test) and one row per pivot; both are rebuilt from
/// T0 and the etas by repeating Tableau::pivot's operations on those entries
/// in order, with its exact 1.0 and 0.0 writes and its skips of exact zeros,
/// so every entry read equals the cold tableau's. For p phase-2 pivots that
/// costs O(p * rows + p^2 * nnz), nnz the nonzeros of one eta.
class Phase2FromStart : public Simplex<Phase2FromStart> {
 public:
  Phase2FromStart(const Phase1::State& start, const Model& model)
      : Simplex(start.options, start.model.num_variables(),
                start.model.num_constraints()),
        start_(start) {
    cols_ = start.cols;
    first_artificial_ = start.first_artificial;
    duals_ = start.dual_sign;  // first: it outlives the rest (see build())
    dual_column_ = start.dual_column;
    b_ = start.b;
    basis_ = start.basis;
    cost2_ = initial_cost2(model);
    for (const Eta& eta : start.etas) {
      eliminate(eta, cost2_.data(), cost2_[static_cast<std::size_t>(cols_)]);
    }
    last_eta_.assign(static_cast<std::size_t>(rows_), -1);
    column_.resize(static_cast<std::size_t>(rows_));
    row_.resize(static_cast<std::size_t>(cols_));
    packed_row_.resize(static_cast<std::size_t>(cols_));
    packed_column_.resize(static_cast<std::size_t>(rows_));
  }

 private:
  friend class Simplex<Phase2FromStart>;

  /// Column c of the current tableau: T0's column c, brought through every
  /// eta as Tableau::pivot updates it.
  Column column(int c) {
    std::ranges::fill(column_, 0.0);
    for (const Entry& entry : start_.column(c)) {
      column_[static_cast<std::size_t>(entry.index)] = entry.value;
    }
    for (const Eta& eta : etas_) {
      const bool pivot_column = c == eta.column;
      double& pivot_entry = column_[static_cast<std::size_t>(eta.row)];
      pivot_entry = pivot_column ? 1.0 : pivot_entry * eta.inverse;
      const double scaled = pivot_entry;
      if (scaled == 0.0) continue;  // not among the pivot row's nonzeros
      for (const Entry& factor : eta.factors) {
        double& entry = column_[static_cast<std::size_t>(factor.index)];
        entry = pivot_column ? 0.0 : entry - factor.value * scaled;
      }
    }
    column_of_ = c;
    return {column_.data(), 1};
  }

  /// Row r of the current tableau, into row_: from r's last scaled pivot
  /// row if it was a pivot row, else from T0's row r, through every later
  /// eta. A row's entry in an eta's pivot column is that eta's factor for
  /// the row, so eliminate() skips the etas whose column holds 0.0 in row r.
  void rebuild_row(int r) {
    std::ranges::fill(row_, 0.0);
    const int last = last_eta_[static_cast<std::size_t>(r)];
    for (const Entry& entry :
         last >= 0 ? etas_[static_cast<std::size_t>(last)].pivot_row
                   : start_.row(r)) {
      row_[static_cast<std::size_t>(entry.index)] = entry.value;
    }
    double rhs = 0.0;  // unread: b_ holds the rhs
    for (std::size_t l = static_cast<std::size_t>(last + 1); l < etas_.size();
         ++l) {
      eliminate(etas_[l], row_.data(), rhs);
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
    double& pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];
    pivot_rhs *= inverse;
    // The factors: the pivot column's nonzeros off the pivot row, collected
    // without a branch, as pack_pivot_row() collects the row's.
    column_[static_cast<std::size_t>(pivot_row)] = 0.0;
    Entry* factors = packed_column_.data();
    std::size_t num_factors = 0;
    for (int i = 0; i < rows_; ++i) {
      factors[num_factors] = {i, column_[static_cast<std::size_t>(i)]};
      num_factors += column_[static_cast<std::size_t>(i)] != 0.0 ? 1U : 0U;
    }
    const Eta& eta = etas_.add({pivot_row, pivot_col, inverse, pivot_rhs,
                                pack_pivot_row(row_.data(), pivot_col, inverse),
                                {factors, num_factors}});
    for (const Entry& factor : eta.factors) {
      double& rhs = b_[static_cast<std::size_t>(factor.index)];
      rhs -= factor.value * eta.rhs;
      snap(rhs);
    }
    eliminate(eta, cost2_.data(), cost2_[static_cast<std::size_t>(cols_)]);
    last_eta_[static_cast<std::size_t>(pivot_row)] =
        static_cast<int>(etas_.size()) - 1;
    basis_[static_cast<std::size_t>(pivot_row)] = pivot_col;
    ++pivots_;
    column_of_ = -1;  // the pivot changed every column
  }

  const Phase1::State& start_;
  EtaFile etas_;
  std::vector<int> last_eta_;  ///< per row: its last eta as pivot row, or -1
  std::vector<double> column_;  ///< column column_of_, dense, scratch
  int column_of_ = -1;
  std::vector<double> row_;  ///< the pivot row, dense, scratch
  std::vector<Entry> packed_column_;  ///< the pivot's factors, scratch
};

}  // namespace

Phase1 solve_phase1(const Model& model, const SimplexOptions& options) {
  QP_SPAN("lp.phase1");
  auto state = std::make_shared<Phase1::State>();
  state->model = model;  // shares the rows
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
