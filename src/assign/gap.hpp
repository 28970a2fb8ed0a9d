#pragma once

/// \file gap.hpp
/// Generalized Assignment Problem (paper Def 3.10): jobs U, machines V,
/// assignment costs c_ij, loads p_ij, machine budgets T_i. Includes the LP
/// relaxation (paper eqs. (15)-(18)) and the Shmoys-Tardos rounding
/// (paper Thm 3.11): integral cost <= LP cost, machine load <= T_i + pmax_i.

#include <optional>
#include <vector>

#include "check/contracts.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace qp::assign {

/// A GAP instance. Forbidden (job, machine) pairs are expressed with
/// load = kForbidden (infinity); their cost is ignored.
class GapInstance {
 public:
  GapInstance(int num_jobs, int num_machines);

  int num_jobs() const { return num_jobs_; }
  int num_machines() const { return num_machines_; }

  void set_cost(int machine, int job, double cost);
  void set_load(int machine, int job, double load);
  void set_capacity(int machine, double capacity);

  double cost(int machine, int job) const {
    return cost_[index(machine, job)];
  }
  double load(int machine, int job) const {
    return load_[index(machine, job)];
  }
  /// Hot path (rounding scans every (machine, job) pair): unchecked
  /// indexing, bounds guarded by the contract in Debug builds.
  double capacity(int machine) const {
    QP_REQUIRE(machine >= 0 && machine < num_machines_,
               "machine index out of range");
    return capacity_[static_cast<std::size_t>(machine)];
  }

  /// A pair is allowed iff its load is finite and fits the machine budget
  /// (the LP keeps y_ij = 0 otherwise, mirroring constraint (13) / the
  /// p_ij = infinity convention in Sec 3.3.1).
  bool allowed(int machine, int job) const;

 private:
  std::size_t index(int machine, int job) const;

  int num_jobs_ = 0;
  int num_machines_ = 0;
  std::vector<double> cost_;      // machine-major
  std::vector<double> load_;      // machine-major
  std::vector<double> capacity_;
};

/// Fractional solution to the GAP LP: y[machine][job] (machine-major).
struct FractionalGap {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> y;
  std::vector<double> duals;  ///< LP row duals, build_gap_lp's row order

  double value(const GapInstance& g, int machine, int job) const {
    return y[static_cast<std::size_t>(machine) *
                 static_cast<std::size_t>(g.num_jobs()) +
             static_cast<std::size_t>(job)];
  }
};

/// LP relaxation (15)-(18) as an lp::Model: one variable per allowed
/// (machine, job) pair, (17) per job, then (16) per machine with an allowed
/// job. The one builder behind solve_gap_lp and the certificate's bound.
struct GapLp {
  lp::Model model;
  std::vector<int> var;  ///< machine-major model ids; -1 where not allowed
};
GapLp build_gap_lp(const GapInstance& instance);

/// Solves the LP relaxation (15)-(18).
FractionalGap solve_gap_lp(const GapInstance& instance);

/// Integral GAP solution.
struct GapAssignment {
  std::vector<int> job_to_machine;
  double total_cost = 0.0;
  std::vector<double> machine_loads;
};

/// Shmoys-Tardos rounding of a fractional solution: builds per-machine unit
/// slots over jobs sorted by non-increasing load, then extracts a min-cost
/// job-saturating matching. Guarantees cost <= fractional cost and
/// machine load <= T_i + max allowed load on i.
/// \returns std::nullopt if \p fractional does not fully assign every job
///          (e.g. the LP was infeasible).
std::optional<GapAssignment> shmoys_tardos_round(const GapInstance& instance,
                                                 const FractionalGap& fractional);

/// Convenience: LP + rounding. std::nullopt if the LP is infeasible.
std::optional<GapAssignment> solve_gap(const GapInstance& instance);

/// Baseline for ablation benches: assigns each job (in input order) to the
/// cheapest machine whose remaining budget fits its load; no guarantee.
std::optional<GapAssignment> greedy_gap(const GapInstance& instance);

}  // namespace qp::assign
