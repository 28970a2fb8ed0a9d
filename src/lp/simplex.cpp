#include "lp/simplex.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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

/// row -= factor * entries, on the entries' columns only: one
/// multiply-subtract per entry, in the entries' order.
void subtract(double* row, double factor, std::span<const Entry> entries) {
  for (const Entry& entry : entries) {
    row[entry.index] -= factor * entry.value;
  }
}

/// Brings a dense row through the pivot `eta`, as every pivot updates its
/// other rows and its cost rows: with the row's pivot-column entry as the
/// factor, row -= factor * (scaled pivot row), exactly 0.0 at the pivot
/// column, and rhs -= factor * eta.rhs, where `rhs` is the row's entry of b
/// or a cost row's objective entry. A row whose factor is exactly 0.0 is
/// left as it is.
void eliminate(const Eta& eta, double* row, double& rhs) {
  const double factor = row[eta.column];
  if (factor == 0.0) return;
  subtract(row, factor, eta.pivot_row);
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

/// A column Dantzig's rule may enter and its reduced cost; column -1 when
/// none prices below -epsilon.
struct Candidate {
  double cost;
  int column;
};

/// What the cold Tableau and Phase2FromStart share: the rhs, the basis, the
/// phase-2 cost row, the dual bookkeeping and the simplex loop itself
/// (Dantzig pricing, the ratio test, the Bland fallback). `Table` supplies
/// the tableau: column(e) copies column e of the current tableau into
/// column_ and returns it, and pivot(r, c, limit), called right after
/// column(c), pivots on (r, c), updates b_, basis_ and the live cost rows,
/// and returns the column Dantzig's rule enters next: price() of the live
/// cost row over columns [0, limit).
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
    // Dantzig's entering column; each pivot prices the cost row it updates.
    int dantzig = price(cost.data(), 0, limit_col).column;
    while (true) {
      if (iterations++ >= options_.max_iterations) {
        return SolveStatus::kIterationLimit;
      }
      // Entering column.
      int entering = dantzig;
      if (use_bland) {
        entering = -1;
        for (int j = 0; j < limit_col; ++j) {
          if (cost[static_cast<std::size_t>(j)] < -options_.epsilon) {
            entering = j;
            break;
          }
        }
      }
      if (entering < 0) return SolveStatus::kOptimal;

      // Ratio test (ties broken by smallest basis index, Bland-compatible).
      const double* column = table.column(entering);
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

      dantzig = table.pivot(leaving, entering, limit_col);

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

  /// Dantzig's rule on cost[begin, end): the first column of least reduced
  /// cost below -epsilon. Over consecutive ranges, the candidate of least
  /// cost, the earliest range's on a tie, is the one of their union.
  Candidate price(const double* cost, int begin, int end) const {
    Candidate best{-options_.epsilon, -1};
    for (int j = begin; j < end; ++j) {
      if (cost[j] < best.cost) best = {cost[j], j};
    }
    return best;
  }

  /// Appends the columns j of [begin, end) where data[j] != 0.0 to
  /// packed[num_found, ...), indices only, and returns the new count.
  /// Writes only packed[num_found, num_found + end - begin), without a
  /// branch on the entries: most are zero, and which is hard to predict.
  static int find_nonzeros(const double* data, int begin, int end,
                           Entry* packed, int num_found) {
    for (int j = begin; j < end; ++j) {
      packed[num_found].index = j;
      num_found += data[j] != 0.0 ? 1 : 0;
    }
    return num_found;
  }

  /// Scales the pivot row `data` by `inverse` in place at the `num_found`
  /// columns find_nonzeros() left in `packed`, exactly 1.0 at `pivot_col`,
  /// and packs the scaled nonzeros there (an entry that underflows to zero
  /// is dropped). Only the nonzeros are scaled: a skipped column holds
  /// exactly 0.0, where x - f * 0.0 == x, so the eliminations the packed
  /// row feeds equal the dense update up to the sign of a zero, which no
  /// comparison or division reads.
  static std::span<const Entry> scale_found(double* data, int pivot_col,
                                            double inverse, Entry* packed,
                                            int num_found) {
    std::size_t count = 0;
    for (int k = 0; k < num_found; ++k) {
      const int j = packed[k].index;
      data[j] = j == pivot_col ? 1.0 : data[j] * inverse;  // exact 1.0
      packed[count] = {j, data[j]};
      count += data[j] != 0.0 ? 1U : 0U;
    }
    return {packed, count};
  }

  /// The pivot's factors: the nonzeros of column_ (the pivot column before
  /// the pivot) off `pivot_row`, by row, collected without a branch, as
  /// find_nonzeros() collects the row's. Zeroes column_'s pivot-row entry.
  std::span<const Entry> collect_factors(int pivot_row) {
    column_[static_cast<std::size_t>(pivot_row)] = 0.0;
    Entry* factors = packed_column_.data();
    std::size_t num_factors = 0;
    for (int i = 0; i < rows_; ++i) {
      factors[num_factors] = {i, column_[static_cast<std::size_t>(i)]};
      num_factors += column_[static_cast<std::size_t>(i)] != 0.0 ? 1U : 0U;
    }
    return {factors, num_factors};
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
  std::vector<double> column_;  ///< column column_of_, dense, scratch
  int column_of_ = -1;
  std::vector<Entry> packed_column_;  ///< the pivot's factors, scratch
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
  /// Copies column c of the tableau into column_: the one strided pass
  /// over it that the ratio test and the pivot then share. An entry on a
  /// page no write has reached is 0.0 and is not read.
  const double* column(int c) {
    const double* data = &a_[static_cast<std::size_t>(c)];
    const auto stride = static_cast<std::size_t>(cols_);
    for (int i = 0; i < rows_; ++i) {
      const double* entry = data + static_cast<std::size_t>(i) * stride;
      column_[static_cast<std::size_t>(i)] = touched(entry) ? *entry : 0.0;
    }
    column_of_ = c;
    return column_.data();
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
    touched_ = std::vector<std::atomic<bool>>(
        page(a_.get() + static_cast<std::size_t>(rows_) *
                            static_cast<std::size_t>(cols_) - 1) + 1);
    packed_row_.resize(static_cast<std::size_t>(cols_));
    column_.resize(static_cast<std::size_t>(rows_));
    packed_column_.resize(static_cast<std::size_t>(rows_));
    plan_blocks();
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
      const auto set = [&](int j, double value) {
        row_data[j] = value;
        touch(row_data + j, row_data + j);
      };
      for (const auto& [var, coeff] : c.terms) {
        set(var, row_data[var] + (negated ? -coeff : coeff));
      }
      // With y = c_B B^-1, a column of +1 in row i (a <= slack or an
      // artificial) ends with reduced cost -y_i, the >= slack's -1 with
      // +y_i; a negated row's dual changes sign once more.
      double dual_sign = negated ? 1.0 : -1.0;
      switch (relation[static_cast<std::size_t>(i)]) {
        case Relation::kLessEqual:
          set(next_slack, 1.0);
          dual_column_[static_cast<std::size_t>(i)] = next_slack;
          basis_[static_cast<std::size_t>(i)] = next_slack++;
          break;
        case Relation::kGreaterEqual:
          set(next_slack, -1.0);
          dual_column_[static_cast<std::size_t>(i)] = next_slack++;
          dual_sign = -dual_sign;
          set(next_artificial, 1.0);
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
        case Relation::kEqual:
          set(next_artificial, 1.0);
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

  /// Splits the columns into blocks_: one block below kBlockedWidth, else
  /// kBlocks of equal width. A pure function of the width: the blocks, and
  /// so every operation a pivot performs, are the same at any thread count.
  void plan_blocks() {
    const int count = cols_ < kBlockedWidth ? 1 : kBlocks;
    const int width = (cols_ + count - 1) / count;
    blocks_.clear();
    for (int begin = 0; begin < cols_; begin += width) {
      blocks_.push_back({begin, std::min(cols_, begin + width), {}, {}});
    }
  }

  /// Pivots on (pivot_row, pivot_col), updating the live cost rows, and
  /// returns the column Dantzig's rule enters next: the least reduced cost
  /// of the live cost row (cost1_ in phase 1, else cost2_) over columns
  /// [0, limit_col). Per column block, in one pass on the exec pool when
  /// there is more than one block: scales and packs the block's slice of
  /// the pivot row, brings every row with a nonzero factor (read from
  /// column_ before the pass) and each cost row whose factor is nonzero
  /// through that slice, writes the exact 0.0 at the pivot column if the
  /// block holds it, and prices the block. A block reads and writes only
  /// its own columns, so every entry sees the serial update's operations in
  /// its order at any thread count (docs/PARALLEL.md). Then, in block order:
  /// the rhs and objective entries, the price, and the eta of the
  /// concatenated slices when phase 1 is being kept.
  int pivot(int pivot_row, int pivot_col, int limit_col) {
    QP_INVARIANT(column_of_ == pivot_col,
                 "a pivot follows the ratio test on its own column");
    double* pivot_data = row(pivot_row);
    const double inverse = 1.0 / pivot_data[pivot_col];
    double& pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];
    pivot_rhs *= inverse;
    const std::span<const Entry> factors = collect_factors(pivot_row);
    // Nothing reads cost1_ once phase 1 has ended.
    const double factor1 =
        in_phase1_ ? cost1_[static_cast<std::size_t>(pivot_col)] : 0.0;
    const double factor2 = cost2_[static_cast<std::size_t>(pivot_col)];
    const double* live = in_phase1_ ? cost1_.data() : cost2_.data();
    const auto run_block = [&](std::size_t k) {
      Block& block = blocks_[k];
      Entry* packed = &packed_row_[static_cast<std::size_t>(block.begin)];
      int num_found = 0;
      for_each_touched_run(pivot_data, block.begin, block.end,
                           [&](int begin, int end) {
                             num_found = find_nonzeros(pivot_data, begin, end,
                                                       packed, num_found);
                           });
      block.packed =
          scale_found(pivot_data, pivot_col, inverse, packed, num_found);
      const bool holds_pivot =
          block.begin <= pivot_col && pivot_col < block.end;
      const auto update = [&](double* data, double factor) {
        subtract(data, factor, block.packed);
        if (holds_pivot) data[pivot_col] = 0.0;  // exact
      };
      for (const Entry& factor : factors) {
        double* data = row(factor.index);
        update(data, factor.value);
        if (!block.packed.empty()) {
          touch(data + block.packed.front().index,
                data + block.packed.back().index);
        }
      }
      if (factor1 != 0.0) update(cost1_.data(), factor1);
      if (factor2 != 0.0) update(cost2_.data(), factor2);
      block.price = price(live, block.begin, std::min(block.end, limit_col));
    };
    if (blocks_.size() == 1) {
      run_block(0);
    } else {
      exec::parallel_for(blocks_.size(), run_block);
    }
    for (const Entry& factor : factors) {
      double& rhs = b_[static_cast<std::size_t>(factor.index)];
      rhs -= factor.value * pivot_rhs;
      snap(rhs);
    }
    const auto objective = static_cast<std::size_t>(cols_);
    if (factor1 != 0.0) cost1_[objective] -= factor1 * pivot_rhs;
    if (factor2 != 0.0) cost2_[objective] -= factor2 * pivot_rhs;
    Candidate entering{-options_.epsilon, -1};
    for (const Block& block : blocks_) {
      if (block.price.cost < entering.cost) entering = block.price;
    }
    if (etas_ != nullptr) {
      etas_->add({pivot_row, pivot_col, inverse, pivot_rhs,
                  concatenate_packed(), {}});
    }
    basis_[static_cast<std::size_t>(pivot_row)] = pivot_col;
    ++pivots_;
    column_of_ = -1;  // the pivot changed every column
    return entering.column;
  }

  /// The scaled pivot row, packed: the blocks' slices moved together, in
  /// block order, at the front of packed_row_.
  std::span<const Entry> concatenate_packed() {
    Entry* packed = packed_row_.data();
    std::size_t count = 0;
    for (const Block& block : blocks_) {
      std::memmove(packed + count, block.packed.data(),
                   block.packed.size() * sizeof(Entry));
      count += block.packed.size();
    }
    return {packed, count};
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
      if (pivot_col >= 0) {
        column(pivot_col);
        pivot(i, pivot_col, /*limit_col=*/0);
      }
    }
  }

  /// One column block of a pivot: columns [begin, end), the pivot row's
  /// packed nonzeros there and the block's Dantzig candidate.
  struct Block {
    int begin;
    int end;
    std::span<const Entry> packed;
    Candidate price;
  };

  /// Width (columns) from which pivots run on kBlocks column blocks on the
  /// exec pool: the Thm 5.1 GAP LPs from a few hundred nodes up. Narrower
  /// tableaus (the SSQPP relay LPs, the GAP LPs of small instances) pivot
  /// in one block, inline, and make no exec call.
  static constexpr int kBlockedWidth = 4096;
  static constexpr int kBlocks = 4;
  /// log2 of the page size touched_ tracks (4 KiB).
  static constexpr unsigned kPageBits = 12;
  /// Entries of one of save()'s temporary blocks (64 KiB), as in EtaFile.
  static constexpr std::size_t kSaveBlockEntries = 4096;

  /// The page of a_ that holds `entry`, counted from a_'s first page.
  std::size_t page(const double* entry) const {
    return (std::bit_cast<std::uintptr_t>(entry) >> kPageBits) -
           (std::bit_cast<std::uintptr_t>(a_.get()) >> kPageBits);
  }
  /// Records that entries from `first` to `last` may have been written.
  void touch(const double* first, const double* last) {
    for (std::size_t p = page(first); p <= page(last); ++p) {
      touched_[p].store(true, std::memory_order_relaxed);
    }
  }
  /// False only if no write has reached the page of `entry`, which then
  /// holds 0.0 as std::calloc left it.
  bool touched(const double* entry) const {
    return touched_[page(entry)].load(std::memory_order_relaxed);
  }
  /// Calls scan(begin, end) on each run of columns [begin, end) of the row
  /// `data`, within [first, last), that lies on one touched page: the
  /// columns it skips hold 0.0.
  template <class Scan>
  void for_each_touched_run(const double* data, int first, int last,
                            Scan&& scan) const {
    constexpr std::uintptr_t kPage = std::uintptr_t{1} << kPageBits;
    for (int begin = first; begin < last;) {
      const auto offset = std::bit_cast<std::uintptr_t>(data + begin) % kPage;
      const int end = std::min(
          last, begin + static_cast<int>((kPage - offset) / sizeof(double)));
      if (touched(data + begin)) scan(begin, end);
      begin = end;
    }
  }

  int num_artificial_ = 0;
  double rhs_scale_ = 0.0;
  bool in_phase1_ = false;
  EtaFile* etas_ = nullptr;  ///< where pivots record their etas, if anywhere
  struct Free {
    void operator()(double* data) const { std::free(data); }
  };
  std::unique_ptr<double[], Free> a_;  ///< rows_ x cols_, from std::calloc
  std::vector<double> cost1_;
  std::vector<Block> blocks_;  ///< the column blocks, fixed by cols_
  /// Per 4 KiB page of a_: whether a write may have reached it. A page never
  /// written is never read either, so the OS maps no page for it at all,
  /// not even the shared zero page (a fault per page on first read).
  std::vector<std::atomic<bool>> touched_;
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
  const double* column(int c) {
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
    return column_.data();
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
  int pivot(int pivot_row, int pivot_col, int limit_col) {
    QP_INVARIANT(column_of_ == pivot_col,
                 "a pivot follows the ratio test on its own column");
    rebuild_row(pivot_row);
    QP_INVARIANT(row_[static_cast<std::size_t>(pivot_col)] ==
                     column_[static_cast<std::size_t>(pivot_row)],
                 "the rebuilt pivot row and column must meet in one value");
    const double inverse = 1.0 / row_[static_cast<std::size_t>(pivot_col)];
    double& pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];
    pivot_rhs *= inverse;
    const std::span<const Entry> factors = collect_factors(pivot_row);
    const Eta& eta = etas_.add(
        {pivot_row, pivot_col, inverse, pivot_rhs,
         scale_found(row_.data(), pivot_col, inverse, packed_row_.data(),
                     find_nonzeros(row_.data(), 0, cols_,
                                   packed_row_.data(), 0)),
         factors});
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
    return price(cost2_.data(), 0, limit_col).column;
  }

  const Phase1::State& start_;
  EtaFile etas_;
  std::vector<int> last_eta_;  ///< per row: its last eta as pivot row, or -1
  std::vector<double> row_;  ///< the pivot row, dense, scratch
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
