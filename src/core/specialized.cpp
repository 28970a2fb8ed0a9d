#include "core/specialized.hpp"

#include "core/evaluators.hpp"
#include "core/grid_layout.hpp"
#include "core/majority_layout.hpp"
#include "core/qpp_solver.hpp"

namespace qp::core {

namespace {

/// Thm 3.3: the Sec 4 layout from every node, scored by the QPP objective.
template <typename Layout, typename LayoutFn>
std::optional<SpecializedQppResult> best_layout(const QppInstance& instance,
                                                LayoutFn&& layout_from) {
  const auto sweep = relay_sweep<Layout>(
      instance, relay_candidates(instance, {}), layout_from,
      [&](const Layout& layout) {
        return average_max_delay(instance, layout.placement);
      });
  if (!sweep.winner) return std::nullopt;
  const auto& won = sweep.feasible[*sweep.winner];
  return SpecializedQppResult{.placement = won.solution.placement,
                              .chosen_source = won.source,
                              .average_delay = won.objective,
                              .source_delay = won.solution.delay};
}

}  // namespace

std::optional<SpecializedQppResult> solve_qpp_grid(const QppInstance& instance,
                                                   int k) {
  return best_layout<GridLayoutResult>(instance, [k](const SsqppInstance& v) {
    return optimal_grid_layout(v, k);
  });
}

std::optional<SpecializedQppResult> solve_qpp_majority(
    const QppInstance& instance, int t) {
  return best_layout<MajorityLayoutResult>(
      instance, [t](const SsqppInstance& v) { return majority_layout(v, t); });
}

}  // namespace qp::core
