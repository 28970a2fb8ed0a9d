#include "quorum/intersection.hpp"

#include <cstdint>
#include <stdexcept>

#include "check/contracts.hpp"

namespace qp::quorum {

LivenessReport check_liveness(const QuorumSystem& system,
                              const std::vector<bool>& failed_elements) {
  if (static_cast<int>(failed_elements.size()) != system.universe_size()) {
    throw std::invalid_argument(
        "check_liveness: failed_elements must have one entry per universe "
        "element");
  }
  LivenessReport report;

  // A quorum is live iff none of its elements failed. Represent each live
  // quorum as a bitmask over the universe, `words` words of one flat buffer
  // (live quorum i at masks[i * words]), so the pairwise intersection check
  // below is a word-wise AND.
  const std::size_t words =
      (static_cast<std::size_t>(system.universe_size()) + 63U) / 64U;
  std::vector<std::uint64_t> masks;
  for (int q = 0; q < system.num_quorums(); ++q) {
    const Quorum& quorum = system.quorum(q);
    bool live = true;
    for (const int u : quorum) {
      if (failed_elements[static_cast<std::size_t>(u)]) {
        live = false;
        break;
      }
    }
    if (!live) continue;
    report.live_quorums.push_back(q);
    const std::size_t first = masks.size();
    masks.resize(first + words, 0U);
    for (const int u : quorum) {
      masks[first + static_cast<std::size_t>(u) / 64U] |=
          std::uint64_t{1} << (static_cast<std::size_t>(u) % 64U);
    }
  }

  // Safety: certify pairwise intersection of the live sub-family, keeping
  // the first violating pair as a witness.
  const std::size_t live = report.live_quorums.size();
  for (std::size_t i = 0; i < live && report.pairwise_intersecting; ++i) {
    for (std::size_t j = i + 1; j < live; ++j) {
      bool intersects = false;
      for (std::size_t w = 0; w < words; ++w) {
        if ((masks[i * words + w] & masks[j * words + w]) != 0U) {
          intersects = true;
          break;
        }
      }
      if (!intersects) {
        report.pairwise_intersecting = false;
        report.violation = {report.live_quorums[i], report.live_quorums[j]};
        break;
      }
    }
  }

  // A live sub-family of an intersecting family is itself intersecting:
  // failures can cost availability but never the safety of an intersecting
  // system. (Read/write families with non-intersecting read quorums may
  // legitimately report violations instead.)
  QP_INVARIANT(!system.is_intersecting() || report.pairwise_intersecting,
               "check_liveness: live sub-family of an intersecting system "
               "must stay intersecting");
  return report;
}

}  // namespace qp::quorum
