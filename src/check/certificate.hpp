#pragma once

/// \file certificate.hpp
/// Certified-bounds checking: every approximation guarantee the solvers
/// report is re-derived and verified, so a benchmark or deployment can
/// self-certify its numbers instead of trusting the solver that produced
/// them.
///
/// LP bounds. Every LP value a chain needs (Z* of LP (9)-(14), G of the
/// GAP LP (15)-(18)) is replaced by a weak-duality bound D <= Z* computed
/// by lp::dual_bound on the model the checker builds itself:
///        D = b.y + sum_j min(0, (c - A^T y)_j),
/// with y projected onto the signs its rows need. Every variable of these
/// LPs lies in [0, 1] by (10), (11) and (17), so D is at most the LP
/// optimum for ANY y (Neumaier-Shcherbina, 2004). The checker takes y from
/// the result (SsqppResult::lp_duals, QppResult::relay_lps,
/// TotalDelayResult::lp_duals) when it has one finite entry per row, and
/// otherwise from its own solve of that model; only a solve that proves
/// the LP infeasible is skipped, any other unsolved LP fails a row. A wrong
/// y can thus only weaken a bound, never make it unsound, and no reported
/// Z*, G or lp_objective is ever used as a bound. With the solver's own
/// duals D equals the LP value up to rounding and nothing is re-solved.
///
/// The certified chains (beta = alpha / (alpha - 1)):
///  - Thm 3.7 (SSQPP): D <= Z* <= OPT_ssqpp and
///        Delta_f(v0) <= beta * D,   load_f(v) <= (alpha+1) cap(v).
///    The placement may use (alpha+1) cap, so Delta_f(v0) may undercut D.
///  - Thm 1.2 (QPP): with D(v0) bounding Z*(v0) for every node v0,
///        L = min_v0 [ Avg_v d(v, v0) + D(v0) ] <= 5 OPT   (Lemma 3.1),
///    and since OPT's capacity-respecting placement f* has
///    Delta_{f*}(v) >= OPT_ssqpp(v) >= D(v), also the direct bound
///        sum_v w_v D(v) <= sum_v w_v Delta_{f*}(v) = OPT.
///    The checks Avg_v Delta_f(v) <= beta * L and load <= (alpha+1) cap
///    machine-verify the 5 beta approximation, and max(L / 5, direct) is
///    the certified lower bound on OPT (direct only when every node's LP
///    is feasible). CertificateOptions::derive_opt_lower_bound turns the
///    per-node loop off; the Thm 3.7 chain at the chosen relay and the
///    relay records' consistency rows are still checked.
///  - Thm 5.1 (total delay): D <= G <= OPT and
///        Avg_v Gamma_f(v) <= D,   load_f(v) <= 2 cap(v).
///  - Eq. (19) (Majority, Thm 1.3): the measured Delta_f(v0) equals the
///    closed form on the sorted slot distances, and the layout respects
///    capacities exactly.
///
/// Every certificate also re-checks reported numbers against recomputed
/// ones ("consistency/*" rows: delays, load violations, each reported LP
/// value against its D, QppResult::best_lp_bound against the max of its
/// relays' D), so a corrupted result struct fails even when the underlying
/// placement is fine.

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/majority_layout.hpp"
#include "core/qpp_solver.hpp"
#include "core/ssqpp_solver.hpp"
#include "core/total_delay.hpp"

namespace qp::check {

/// One verified inequality value <= bound (+ tolerance).
struct BoundCheck {
  std::string name;    ///< e.g. "thm3.7/delay"
  double value = 0.0;  ///< measured / recomputed quantity
  double bound = 0.0;  ///< certified upper bound on it
  bool holds = false;
};

/// One certified lower bound on OPT, e.g. "L/5" or "direct" for Thm 1.2.
struct LowerBound {
  std::string name;
  double value = 0.0;
};

struct Certificate {
  std::vector<BoundCheck> checks;
  /// Every lower bound on OPT that was derived (empty when none).
  std::vector<LowerBound> lower_bounds;
  /// Certified lower bound on the optimum of the problem the result claims
  /// to approximate: the largest of lower_bounds, the first on ties (0 when
  /// not derived).
  double opt_lower_bound = 0.0;
  /// Achieved objective / opt_lower_bound (0 when no lower bound).
  double certified_ratio = 0.0;

  bool ok() const;
  /// Tabular rendering, one check per line.
  std::string to_string() const;
  void add(std::string name, double value, double bound, double tolerance);
};

struct CertificateOptions {
  /// The alpha the result was solved with; bounds depend on it.
  double alpha = 2.0;
  /// Absolute + relative slack for floating-point comparisons.
  double tolerance = 1e-6;
  /// Thm 1.2 only: derive the OPT lower bounds L / 5 and direct (one dual
  /// bound per node).
  bool derive_opt_lower_bound = true;
  lp::SimplexOptions simplex;
};

/// Thm 3.7 certificate for a single-source result.
Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::SsqppResult& result,
                              const CertificateOptions& options = {});

/// Thm 1.2 certificate for a full QPP result.
Certificate check_certificate(const core::QppInstance& instance,
                              const core::QppResult& result,
                              const CertificateOptions& options = {});

/// Thm 5.1 certificate for a total-delay result.
Certificate check_certificate(const core::QppInstance& instance,
                              const core::TotalDelayResult& result,
                              const CertificateOptions& options = {});

/// Eq. (19) certificate for a majority layout of a threshold-t system.
Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::MajorityLayoutResult& result, int t,
                              const CertificateOptions& options = {});

}  // namespace qp::check
