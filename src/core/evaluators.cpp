#include "core/evaluators.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace qp::core {

namespace {

/// The per-client delays the averages are taken of.
enum class ClientDelay {
  kExpectedMax,    ///< Delta_f(v) = sum_Q p(Q) max_{u in Q} d(v, f(u))
  kExpectedTotal,  ///< Gamma_f(v) = sum_Q p(Q) sum_{u in Q} d(v, f(u))
  kClosest,        ///< min_Q max_{u in Q} d(v, f(u))
};

/// Lanes of for_each_lane's fixed-size inner loop.
constexpr std::size_t kLanes = 8;

/// acc[c] = op(acc[c], x[c]) for every c in [0, count), kLanes at a time,
/// then one at a time. -O2 vectorizes only a loop whose trip count is known
/// and whose pointers cannot overlap, so the inner loop has a fixed trip
/// count and the pointers are restrict; each c still sees one op. The
/// vector width is the ISA's: SSE2 runs the 8 lanes 2 doubles at a time,
/// and client_delays_block's AVX2 and AVX-512 clones 4 and 8 at a time.
/// The lanes are independent, so a lane's op is the same IEEE operation on
/// the same operands at any width, and every clone returns the same bits.
/// That holds only while op is not contracted: a*b+c fused into one FMA
/// rounds once, not twice, so src/CMakeLists.txt builds with
/// -ffp-contract=off.
template <typename Op>
inline void for_each_lane(double* __restrict acc, const double* __restrict x,
                          std::size_t count, Op op) {
  std::size_t c = 0;
  for (; c + kLanes <= count; c += kLanes) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      acc[c + lane] = op(acc[c + lane], x[c + lane]);
    }
  }
  for (; c < count; ++c) acc[c] = op(acc[c], x[c]);
}

/// The \p kind delay of the clients v in [begin, begin + count), written
/// to value[v - begin]. For each quorum in order, each placed element's
/// metric row is read across the block -- row(f(u))[v] == d(v, f(u)) bit
/// for bit, since every Metric is exactly symmetric -- into an independent
/// running max or sum per client, which is then folded into that client's
/// value (p(Q) times it added, or the min taken). Every client sees exactly
/// the operations, in exactly the order, of a loop over its own quorums, so
/// its value does not depend on the block it is in. \p quorum_delay is
/// scratch of \p count doubles; \p strategy may be null for kClosest.
template <ClientDelay kind>
[[gnu::always_inline]] inline void client_delays(
    const graph::Metric& metric, const quorum::QuorumSystem& system,
    const quorum::AccessStrategy* strategy, const Placement& placement,
    std::size_t begin, std::size_t count, double* quorum_delay,
    double* value) {
  const auto n = static_cast<std::size_t>(metric.num_points());
  QP_REQUIRE(count <= n && begin <= n - count, "client id out of range");
  std::fill_n(value, count,
              kind == ClientDelay::kClosest
                  ? std::numeric_limits<double>::infinity()
                  : 0.0);
  for (int qi = 0; qi < system.num_quorums(); ++qi) {
    std::fill_n(quorum_delay, count, 0.0);
    for (int u : system.quorum(qi)) {
      const double* distance =
          metric.row(placement[static_cast<std::size_t>(u)]) + begin;
      // std::max and std::min select by reference, which does not
      // vectorize; these are their value forms, operand order included.
      if constexpr (kind == ClientDelay::kExpectedTotal) {
        for_each_lane(quorum_delay, distance, count,
                      [](double delay, double d) { return delay + d; });
      } else {
        for_each_lane(quorum_delay, distance, count, [](double delay, double d) {
          return delay < d ? d : delay;
        });
      }
    }
    if constexpr (kind == ClientDelay::kClosest) {
      for_each_lane(value, quorum_delay, count, [](double best, double delay) {
        return delay < best ? delay : best;
      });
    } else {
      const double probability = strategy->probability(qi);
      for_each_lane(value, quorum_delay, count,
                    [probability](double sum, double delay) {
                      return sum + probability * delay;
                    });
    }
  }
}

// target_clones compiles client_delays_block once per listed ISA and adds
// an ifunc resolver, which the dynamic loader runs once per process to bind
// the call to the widest clone the CPU supports. The attribute needs an x86
// compiler that has it (GCC 6+, Clang 14+) and ifunc, which ELF with glibc
// provides; elsewhere the one default-ISA kernel is compiled as before. So
// it is under ThreadSanitizer, which instruments the resolver too: the
// loader runs it before the TSan runtime starts, and the process crashes.
#if defined(__SANITIZE_THREAD__)
#define QP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QP_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && \
    defined(__has_attribute) && !defined(QP_TSAN)
#if __has_attribute(target_clones)
#define QP_DELAY_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef QP_DELAY_CLONES
#define QP_DELAY_CLONES
#endif

/// client_delays<kind> over a block of clients, in the widest clone the CPU
/// supports. Clang rejects target_clones on a template, so the kind is a
/// parameter here and each case inlines the one kernel body.
QP_DELAY_CLONES
void client_delays_block(ClientDelay kind, const graph::Metric& metric,
                         const quorum::QuorumSystem& system,
                         const quorum::AccessStrategy* strategy,
                         const Placement& placement, std::size_t begin,
                         std::size_t count, double* quorum_delay,
                         double* value) {
  switch (kind) {
    case ClientDelay::kExpectedMax:
      client_delays<ClientDelay::kExpectedMax>(metric, system, strategy,
                                               placement, begin, count,
                                               quorum_delay, value);
      return;
    case ClientDelay::kExpectedTotal:
      client_delays<ClientDelay::kExpectedTotal>(metric, system, strategy,
                                                 placement, begin, count,
                                                 quorum_delay, value);
      return;
    case ClientDelay::kClosest:
      client_delays<ClientDelay::kClosest>(metric, system, strategy,
                                           placement, begin, count,
                                           quorum_delay, value);
      return;
  }
}

template <ClientDelay kind>
double client_delay(const graph::Metric& metric,
                    const quorum::QuorumSystem& system,
                    const quorum::AccessStrategy* strategy,
                    const Placement& placement, int client) {
  double quorum_delay = 0.0;
  double value = 0.0;
  client_delays<kind>(metric, system, strategy, placement,
                      static_cast<std::size_t>(client), 1, &quorum_delay,
                      &value);
  return value;
}

/// Avg_v of the \p kind delay with the instance's client weights: one
/// client_delays block per chunk of plan_chunks(n, kReductionGrain), then
/// weight * value folded in client order within the chunk and the chunk
/// sums in chunk order. The chunk plan depends only on n, so the result is
/// bit-identical for any thread count; a zero-weight client adds exactly 0.
template <ClientDelay kind>
double average_delay(const QppInstance& instance, const Placement& placement) {
  const auto n = static_cast<std::size_t>(instance.num_nodes());
  if (n == 0) return 0.0;
  const exec::ChunkPlan plan = exec::plan_chunks(n, exec::kReductionGrain);
  std::vector<double> partial(plan.num_chunks, 0.0);
  exec::for_each_chunk(
      n, exec::kReductionGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        const std::size_t count = end - begin;
        std::vector<double> scratch(2 * count);
        double* value = scratch.data() + count;
        client_delays_block(kind, instance.metric(), instance.system(),
                            &instance.strategy(), placement, begin, count,
                            scratch.data(), value);
        double sum = 0.0;
        for (std::size_t c = 0; c < count; ++c) {
          const double weight = instance.client_weights()[begin + c];
          sum += weight == 0.0 ? 0.0 : weight * value[c];
        }
        partial[chunk] = sum;
      });
  double average = partial[0];
  for (std::size_t chunk = 1; chunk < plan.num_chunks; ++chunk) {
    average += partial[chunk];
  }
  return average;
}

}  // namespace

double max_delay(const graph::Metric& metric, const quorum::Quorum& quorum,
                 const Placement& placement, int client) {
  double worst = 0.0;
  for (int u : quorum) {
    worst = std::max(worst,
                     metric(client, placement[static_cast<std::size_t>(u)]));
  }
  return worst;
}

double total_delay(const graph::Metric& metric, const quorum::Quorum& quorum,
                   const Placement& placement, int client) {
  double total = 0.0;
  for (int u : quorum) {
    total += metric(client, placement[static_cast<std::size_t>(u)]);
  }
  return total;
}

double expected_max_delay(const graph::Metric& metric,
                          const quorum::QuorumSystem& system,
                          const quorum::AccessStrategy& strategy,
                          const Placement& placement, int client) {
  return client_delay<ClientDelay::kExpectedMax>(metric, system, &strategy,
                                                 placement, client);
}

double expected_total_delay(const graph::Metric& metric,
                            const quorum::QuorumSystem& system,
                            const quorum::AccessStrategy& strategy,
                            const Placement& placement, int client) {
  return client_delay<ClientDelay::kExpectedTotal>(metric, system,
                                                   &strategy, placement,
                                                   client);
}

namespace {

void check_placement(const Placement& placement, int universe_size,
                     int num_nodes, const char* where) {
  if (!is_valid_placement(placement, universe_size, num_nodes)) {
    throw std::invalid_argument(std::string(where) + ": invalid placement");
  }
}

}  // namespace

double average_max_delay(const QppInstance& instance,
                         const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "average_max_delay");
  QP_SPAN("eval.average_max_delay");
  return average_delay<ClientDelay::kExpectedMax>(instance, placement);
}

double average_total_delay(const QppInstance& instance,
                           const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "average_total_delay");
  return average_delay<ClientDelay::kExpectedTotal>(instance, placement);
}

double source_expected_max_delay(const SsqppInstance& instance,
                                 const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "source_expected_max_delay");
  return expected_max_delay(instance.metric(), instance.system(),
                            instance.strategy(), placement, instance.source());
}

std::vector<double> node_loads(const std::vector<double>& element_loads,
                               const Placement& placement, int num_nodes) {
  check_placement(placement, static_cast<int>(element_loads.size()), num_nodes,
                  "node_loads");
  std::vector<double> loads(static_cast<std::size_t>(num_nodes), 0.0);
  for (std::size_t u = 0; u < placement.size(); ++u) {
    loads[static_cast<std::size_t>(placement[u])] += element_loads[u];
  }
  return loads;
}

double max_capacity_violation(const std::vector<double>& element_loads,
                              const std::vector<double>& capacities,
                              const Placement& placement) {
  const std::vector<double> loads = node_loads(
      element_loads, placement, static_cast<int>(capacities.size()));
  double worst = 0.0;
  for (std::size_t v = 0; v < capacities.size(); ++v) {
    if (loads[v] == 0.0) continue;
    if (capacities[v] == 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst, loads[v] / capacities[v]);
  }
  return worst;
}

bool is_capacity_feasible(const std::vector<double>& element_loads,
                          const std::vector<double>& capacities,
                          const Placement& placement, double tolerance) {
  const std::vector<double> loads = node_loads(
      element_loads, placement, static_cast<int>(capacities.size()));
  for (std::size_t v = 0; v < capacities.size(); ++v) {
    if (loads[v] > capacities[v] * (1.0 + tolerance) + tolerance) return false;
  }
  return true;
}

double relay_delay(const QppInstance& instance, const Placement& placement,
                   int relay_node) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "relay_delay");
  if (relay_node < 0 || relay_node >= instance.num_nodes()) {
    throw std::invalid_argument("relay_delay: relay node out of range");
  }
  double average_distance = 0.0;
  for (int v = 0; v < instance.num_nodes(); ++v) {
    average_distance += instance.client_weights()[static_cast<std::size_t>(v)] *
                        instance.metric()(v, relay_node);
  }
  return average_distance +
         expected_max_delay(instance.metric(), instance.system(),
                            instance.strategy(), placement, relay_node);
}

double closest_quorum_delay(const graph::Metric& metric,
                            const quorum::QuorumSystem& system,
                            const Placement& placement, int client) {
  if (system.num_quorums() == 0) {
    throw std::invalid_argument("closest_quorum_delay: empty quorum system");
  }
  return client_delay<ClientDelay::kClosest>(metric, system, nullptr,
                                             placement, client);
}

double average_closest_quorum_delay(const QppInstance& instance,
                                    const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "average_closest_quorum_delay");
  return average_delay<ClientDelay::kClosest>(instance, placement);
}

int best_relay_node(const QppInstance& instance, const Placement& placement) {
  check_placement(placement, instance.system().universe_size(),
                  instance.num_nodes(), "best_relay_node");
  // Argmin with a strict `<`: ties resolve to the lowest node id under any
  // chunking, so the parallel result matches the sequential scan exactly.
  struct Best {
    double delay = std::numeric_limits<double>::infinity();
    int node = 0;
  };
  const Best best = exec::parallel_map_reduce(
      static_cast<std::size_t>(instance.num_nodes()), Best{},
      [&](std::size_t v) {
        return Best{expected_max_delay(instance.metric(), instance.system(),
                                       instance.strategy(), placement,
                                       static_cast<int>(v)),
                    static_cast<int>(v)};
      },
      [](Best acc, Best candidate) {
        return candidate.delay < acc.delay ? candidate : acc;
      },
      /*grain=*/4);
  return best.node;
}

}  // namespace qp::core
