#include "assign/gap.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "assign/hungarian.hpp"
#include "check/contracts.hpp"
#include "lp/model.hpp"
#include "obs/obs.hpp"

namespace qp::assign {

namespace {

/// Contract helper for the Shmoys-Tardos guarantee: every machine's rounded
/// load stays within T_i + max allowed single-job load on i (Thm 3.11).
[[maybe_unused]] bool loads_within_budget(const GapInstance& instance,
                                          const GapAssignment& assignment) {
  for (int i = 0; i < instance.num_machines(); ++i) {
    double pmax = 0.0;
    for (int j = 0; j < instance.num_jobs(); ++j) {
      if (instance.allowed(i, j)) {
        pmax = std::max(pmax, instance.load(i, j));
      }
    }
    if (assignment.machine_loads[static_cast<std::size_t>(i)] >
        instance.capacity(i) + pmax + 1e-6) {
      return false;
    }
  }
  return true;
}

/// Contract helper: cost of the fractional assignment, sum_ij c_ij y_ij.
/// Thm 3.11 bounds the rounded cost by this (the recorded `objective` field
/// may be absent when the caller hand-builds a fractional solution).
[[maybe_unused]] double fractional_cost(const GapInstance& instance,
                                        const FractionalGap& fractional) {
  double cost = 0.0;
  for (int i = 0; i < instance.num_machines(); ++i) {
    for (int j = 0; j < instance.num_jobs(); ++j) {
      const double y = fractional.value(instance, i, j);
      if (y > 0.0) cost += instance.cost(i, j) * y;
    }
  }
  return cost;
}

}  // namespace

GapInstance::GapInstance(int num_jobs, int num_machines)
    : num_jobs_(num_jobs), num_machines_(num_machines) {
  if (num_jobs < 0 || num_machines < 0) {
    throw std::invalid_argument("GapInstance: negative dimensions");
  }
  const std::size_t cells =
      static_cast<std::size_t>(num_jobs) * static_cast<std::size_t>(num_machines);
  cost_.assign(cells, 0.0);
  load_.assign(cells, kForbidden);
  capacity_.assign(static_cast<std::size_t>(num_machines), 0.0);
}

std::size_t GapInstance::index(int machine, int job) const {
  if (machine < 0 || machine >= num_machines_ || job < 0 || job >= num_jobs_) {
    throw std::invalid_argument("GapInstance: index out of range");
  }
  return static_cast<std::size_t>(machine) * static_cast<std::size_t>(num_jobs_) +
         static_cast<std::size_t>(job);
}

void GapInstance::set_cost(int machine, int job, double cost) {
  if (!std::isfinite(cost)) {
    throw std::invalid_argument("GapInstance: cost must be finite");
  }
  cost_[index(machine, job)] = cost;
}

void GapInstance::set_load(int machine, int job, double load) {
  if (load < 0.0 || std::isnan(load)) {
    throw std::invalid_argument("GapInstance: load must be >= 0 or kForbidden");
  }
  load_[index(machine, job)] = load;
}

void GapInstance::set_capacity(int machine, double capacity) {
  if (!(capacity >= 0.0) || !std::isfinite(capacity)) {
    throw std::invalid_argument("GapInstance: capacity must be finite, >= 0");
  }
  capacity_[static_cast<std::size_t>(machine)] = capacity;
}

bool GapInstance::allowed(int machine, int job) const {
  const double p = load(machine, job);
  // Tolerance mirrors the LP feasibility tolerance: p == T exactly is allowed.
  return std::isfinite(p) && p <= capacity(machine) + 1e-12;
}

GapLp build_gap_lp(const GapInstance& instance) {
  const int jobs = instance.num_jobs();
  const int machines = instance.num_machines();
  GapLp out;
  lp::Model& model = out.model;
  out.var.assign(
      static_cast<std::size_t>(jobs) * static_cast<std::size_t>(machines), -1);
  const auto vindex = [&](int i, int j) -> int& {
    return out.var[static_cast<std::size_t>(i) *
                       static_cast<std::size_t>(jobs) +
                   static_cast<std::size_t>(j)];
  };
  for (int i = 0; i < machines; ++i) {
    for (int j = 0; j < jobs; ++j) {
      if (instance.allowed(i, j)) {
        vindex(i, j) = model.add_variable(instance.cost(i, j));
      }
    }
  }
  // (17): each job fully assigned.
  for (int j = 0; j < jobs; ++j) {
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < machines; ++i) {
      if (vindex(i, j) >= 0) terms.emplace_back(vindex(i, j), 1.0);
    }
    model.add_constraint(std::move(terms), lp::Relation::kEqual, 1.0);
  }
  // (16): machine budgets.
  for (int i = 0; i < machines; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < jobs; ++j) {
      if (vindex(i, j) >= 0) terms.emplace_back(vindex(i, j), instance.load(i, j));
    }
    if (!terms.empty()) {
      model.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                           instance.capacity(i));
    }
  }
  return out;
}

FractionalGap solve_gap_lp(const GapInstance& instance) {
  QP_SPAN("gap.lp");
  QP_COUNTER_ADD("gap.lp_solves", 1);
  const int jobs = instance.num_jobs();
  const int machines = instance.num_machines();
  const GapLp lp = build_gap_lp(instance);
  lp::Solution lp_solution = lp::solve(lp.model);

  FractionalGap out;
  out.status = lp_solution.status;
  out.objective = lp_solution.objective;
  out.y.assign(static_cast<std::size_t>(jobs) * static_cast<std::size_t>(machines),
               0.0);
  if (lp_solution.status == lp::SolveStatus::kOptimal) {
    out.duals = std::move(lp_solution.duals);
    for (int i = 0; i < machines; ++i) {
      for (int j = 0; j < jobs; ++j) {
        const std::size_t cell =
            static_cast<std::size_t>(i) * static_cast<std::size_t>(jobs) +
            static_cast<std::size_t>(j);
        if (lp.var[cell] >= 0) {
          out.y[cell] = lp_solution.values[static_cast<std::size_t>(lp.var[cell])];
        }
      }
    }
    QP_INVARIANT(
        [&] {
          for (int j = 0; j < jobs; ++j) {
            double mass = 0.0;
            for (int i = 0; i < machines; ++i) {
              const double y =
                  out.y[static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(jobs) +
                        static_cast<std::size_t>(j)];
              if (y < -1e-7 || y > 1.0 + 1e-7) return false;
              mass += y;
            }
            if (std::abs(mass - 1.0) > 1e-6) return false;
          }
          return true;
        }(),
        "LP (16)-(17) must fully assign every job with y in [0, 1]");
  }
  return out;
}

namespace {

/// One unit-capacity slot on a machine, remembering which jobs poured
/// fractional mass into it.
struct Slot {
  int machine = 0;
  std::vector<int> jobs;  // jobs with positive fractional mass in this slot
};

}  // namespace

std::optional<GapAssignment> shmoys_tardos_round(
    const GapInstance& instance, const FractionalGap& fractional) {
  if (fractional.status != lp::SolveStatus::kOptimal) return std::nullopt;
  QP_SPAN("gap.round");
  QP_COUNTER_ADD("gap.round_calls", 1);
  const int jobs = instance.num_jobs();
  const int machines = instance.num_machines();
  QP_COUNTER_ADD("gap.jobs", jobs);
  QP_COUNTER_ADD("gap.machines", machines);
  constexpr double kMassEpsilon = 1e-9;

  // Verify every job is (numerically) fully assigned.
  for (int j = 0; j < jobs; ++j) {
    double mass = 0.0;
    for (int i = 0; i < machines; ++i) mass += fractional.value(instance, i, j);
    if (std::abs(mass - 1.0) > 1e-6) return std::nullopt;
  }

  // Build slots machine by machine: jobs sorted by non-increasing load are
  // poured greedily into unit-capacity slots (Shmoys-Tardos construction).
  std::vector<Slot> slots;
  for (int i = 0; i < machines; ++i) {
    std::vector<std::pair<int, double>> mass;  // (job, y_ij > 0)
    for (int j = 0; j < jobs; ++j) {
      const double y = fractional.value(instance, i, j);
      if (y > kMassEpsilon) mass.emplace_back(j, y);
    }
    if (mass.empty()) continue;
    std::sort(mass.begin(), mass.end(), [&](const auto& a, const auto& b) {
      const double pa = instance.load(i, a.first);
      const double pb = instance.load(i, b.first);
      if (pa != pb) return pa > pb;
      return a.first < b.first;
    });
    Slot current{i, {}};
    double filled = 0.0;
    for (auto [job, y] : mass) {
      double remaining = y;
      while (remaining > kMassEpsilon) {
        if (current.jobs.empty() || current.jobs.back() != job) {
          current.jobs.push_back(job);
        }
        const double poured = std::min(remaining, 1.0 - filled);
        filled += poured;
        remaining -= poured;
        if (filled >= 1.0 - kMassEpsilon) {
          slots.push_back(std::move(current));
          current = Slot{i, {}};
          filled = 0.0;
        }
      }
    }
    if (!current.jobs.empty()) slots.push_back(std::move(current));
  }

  // Min-cost matching of jobs into slots. The fractional filling is itself a
  // feasible fractional matching of the same cost as the LP, so an integral
  // matching of cost <= LP cost exists.
  const int num_slots = static_cast<int>(slots.size());
  QP_COUNTER_ADD("gap.slots", num_slots);
  if (jobs > num_slots) return std::nullopt;  // cannot happen with valid input
  std::vector<double> matrix(static_cast<std::size_t>(jobs) *
                                 static_cast<std::size_t>(num_slots),
                             kForbidden);
  for (int s = 0; s < num_slots; ++s) {
    for (int j : slots[static_cast<std::size_t>(s)].jobs) {
      matrix[static_cast<std::size_t>(j) * static_cast<std::size_t>(num_slots) +
             static_cast<std::size_t>(s)] =
          instance.cost(slots[static_cast<std::size_t>(s)].machine, j);
    }
  }
  const std::optional<Matching> matching =
      min_cost_assignment(jobs, num_slots, matrix);
  if (!matching) return std::nullopt;

  GapAssignment out;
  out.job_to_machine.assign(static_cast<std::size_t>(jobs), -1);
  out.machine_loads.assign(static_cast<std::size_t>(machines), 0.0);
  for (int j = 0; j < jobs; ++j) {
    const int slot = matching->row_to_column[static_cast<std::size_t>(j)];
    const int machine = slots[static_cast<std::size_t>(slot)].machine;
    out.job_to_machine[static_cast<std::size_t>(j)] = machine;
    out.total_cost += instance.cost(machine, j);
    out.machine_loads[static_cast<std::size_t>(machine)] +=
        instance.load(machine, j);
  }
  QP_INVARIANT(loads_within_budget(instance, out),
               "Shmoys-Tardos rounding must keep machine load within "
               "T_i + pmax_i (paper Thm 3.11)");
  QP_INVARIANT(
      [&] {
        const double lp_cost = fractional_cost(instance, fractional);
        return out.total_cost <= lp_cost + 1e-6 + 1e-9 * std::abs(lp_cost);
      }(),
      "Shmoys-Tardos rounding must not cost more than the fractional "
      "assignment (paper Thm 3.11)");
  return out;
}

std::optional<GapAssignment> solve_gap(const GapInstance& instance) {
  return shmoys_tardos_round(instance, solve_gap_lp(instance));
}

std::optional<GapAssignment> greedy_gap(const GapInstance& instance) {
  const int jobs = instance.num_jobs();
  const int machines = instance.num_machines();
  GapAssignment out;
  out.job_to_machine.assign(static_cast<std::size_t>(jobs), -1);
  out.machine_loads.assign(static_cast<std::size_t>(machines), 0.0);
  for (int j = 0; j < jobs; ++j) {
    int best = -1;
    for (int i = 0; i < machines; ++i) {
      if (!instance.allowed(i, j)) continue;
      if (out.machine_loads[static_cast<std::size_t>(i)] + instance.load(i, j) >
          instance.capacity(i) + 1e-12) {
        continue;
      }
      if (best < 0 || instance.cost(i, j) < instance.cost(best, j)) best = i;
    }
    if (best < 0) return std::nullopt;
    out.job_to_machine[static_cast<std::size_t>(j)] = best;
    out.total_cost += instance.cost(best, j);
    out.machine_loads[static_cast<std::size_t>(best)] += instance.load(best, j);
  }
  QP_INVARIANT(
      [&] {
        for (int i = 0; i < machines; ++i) {
          if (out.machine_loads[static_cast<std::size_t>(i)] >
              instance.capacity(i) + 1e-9) {
            return false;
          }
        }
        return true;
      }(),
      "greedy GAP assignment must respect machine capacities exactly "
      "(no T_i + pmax_i slack)");
  return out;
}

}  // namespace qp::assign
