#pragma once

/// \file simulator.hpp
/// Discrete-event simulation of quorum accesses over a network.
///
/// The paper models the cost of a quorum access analytically: max-delay
/// delta_f(v, Q) for parallel probing, total-delay gamma_f(v, Q) for
/// sequential probing, and per-node load load_f(v). This simulator executes
/// the same system at message level so those formulas can be validated
/// empirically and extended with effects the analysis abstracts away
/// (queueing at overloaded nodes):
///
///  - each client issues accesses as a Poisson process, picking a quorum
///    from the access strategy each time;
///  - a probe to element u travels one-way d(client, f(u)) time units to
///    its node, waits in the node's FIFO queue, and occupies the node for
///    `1 / service_rate` time units of service;
///  - parallel mode: all probes launch at once; the access completes when
///    the last probe finishes service (paper eq. (1) when service is free);
///  - sequential mode: probes launch one after another, each when the
///    previous finishes (paper's total-delay when service is free).
///
/// With service_rate = infinity the measured mean access delay of client v
/// converges to Delta_f(v) (parallel) / Gamma_f(v) (sequential), and each
/// node's probe share converges to load_f(v); tests and the E9 experiment
/// check exactly this.
///
/// Fault injection (docs/SIMULATION.md): with a FaultSchedule attached the
/// engine becomes a fault-aware quorum-access simulator. Every attempt has
/// a deadline of `probe_timeout` after its launch; probes dropped by
/// crashes/partitions (or slowed past the deadline by gray windows) make
/// the attempt time out, after which the client waits a bounded
/// exponential backoff and *re-selects*: the highest-preference quorum
/// that is live per quorum::check_liveness (preference = strategy
/// probability descending under kStrategy, delta_f(v, .) ascending under
/// kNearestQuorum; untried quorums first). After `max_attempts` timed-out
/// attempts the access fails with outcome kTimeout; when no live quorum
/// exists at re-selection it fails immediately with kUnavailable. All of
/// it is deterministic in (instance, placement, config, schedule): retry
/// decisions draw no randomness, so fault runs replay byte-for-byte.

#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "core/instance.hpp"
#include "obs/access_log.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"
#include "sim/fault_schedule.hpp"

namespace qp::sim {

enum class AccessMode {
  kParallel,    ///< max-delay semantics (paper eq. (1))
  kSequential,  ///< total-delay semantics (paper Sec 5)
};

enum class SelectionPolicy {
  /// Draw each access's quorum from the access strategy (the paper's
  /// model; preserves the engineered load profile).
  kStrategy,
  /// Always use the quorum minimizing delta_f(v, .) for the client -- the
  /// Sec 2 related-work objective (Fu/Kobayashi/Lin). Minimizes latency but
  /// concentrates load; the E12 experiment quantifies the trade-off.
  kNearestQuorum,
};

struct SimulationConfig {
  double arrival_rate_per_client = 1.0;  ///< Poisson rate of quorum accesses
  double duration = 1000.0;              ///< simulated time horizon
  AccessMode mode = AccessMode::kParallel;
  SelectionPolicy selection = SelectionPolicy::kStrategy;
  /// Probes per unit time a node can serve; <= 0 means infinite (no
  /// queueing, the paper's pure-latency model).
  double service_rate = 0.0;
  std::uint64_t seed = 1;
  /// Warm-up period excluded from statistics. Applies uniformly: accesses
  /// starting before `warmup` are excluded from the means AND from the
  /// latency histograms, and probes reaching a node before `warmup` are
  /// excluded from access shares and the queue-wait histogram. Must satisfy
  /// 0 <= warmup < duration (enforced: std::invalid_argument otherwise,
  /// backed by a QP_REQUIRE contract).
  double warmup = 0.0;
  /// Per-probe latency jitter: each probe's network delay is the metric
  /// distance times Uniform(1 - jitter, 1 + jitter). Zero reproduces the
  /// paper's deterministic model exactly. Note that jitter is mean-
  /// preserving per probe but BIASES the parallel (max) access delay
  /// upward -- E9 quantifies this gap between model and network reality.
  double latency_jitter = 0.0;
  /// When >= 0, accesses are routed via this relay node, the Thm 1.2 /
  /// Lemma 3.1 access model (paper eq. (4)): every probe's path is
  /// d(client, relay) + d(relay, node), so with infinite service and zero
  /// jitter a parallel access costs exactly d(v, v0) + delta_f(v0, Q) and
  /// the mean converges to Avg_v d(v, v0) + Delta_f(v0) (paper eq. (8),
  /// core::relay_delay). -1 (default) probes directly from the client.
  /// Must be a valid node id when set (std::invalid_argument otherwise).
  int relay_node = -1;
  /// Optional per-access event log (docs/OBSERVABILITY.md, schema
  /// qplace.access_log.v2). Not owned; may be nullptr. The simulator
  /// records every resolved post-warmup access (completed and, under
  /// faults, failed) and the writer's sampling decides what is kept. The
  /// caller closes the writer after simulate() returns.
  obs::AccessLogWriter* access_log = nullptr;
  /// Optional fault schedule (docs/SIMULATION.md). Not owned; nullptr
  /// reproduces the paper's failure-free model. When set, probe_timeout
  /// must be positive (a dropped probe would otherwise hang its access
  /// forever) and every referenced node id must exist.
  const FaultSchedule* faults = nullptr;
  /// Attempt deadline: an attempt whose probes have not all replied within
  /// `probe_timeout` of its launch times out and is retried. <= 0 disables
  /// timeouts (only valid without a fault schedule). Applies to both
  /// modes; in sequential mode the deadline covers the whole probe chain.
  double probe_timeout = 0.0;
  /// Attempts per access (K >= 1). The access fails with outcome kTimeout
  /// after K timed-out attempts.
  int max_attempts = 3;
  /// Bounded exponential backoff before retry k (k = 2..K): the client
  /// waits min(retry_backoff * 2^(k-2), retry_backoff_cap) after the
  /// timeout before re-selecting. retry_backoff_cap <= 0 means uncapped.
  double retry_backoff = 0.5;
  double retry_backoff_cap = 8.0;
  /// Bucket width of the availability time series (fraction of accesses
  /// starting in each [warmup + i*w, warmup + (i+1)*w) bucket that
  /// succeeded; buckets with no resolved access report 1). <= 0 disables
  /// the series.
  double availability_bucket = 0.0;
  /// Optional live telemetry sink (docs/OBSERVABILITY.md §8). Not owned;
  /// with telemetry_interval > 0 the simulator samples it at every crossed
  /// multiple of the interval in *simulated* time (the sample at boundary b
  /// reflects exactly the events with time <= b -- the event loop is
  /// sequential, so the sequence of samples is deterministic in (instance,
  /// placement, config) regardless of thread count) plus a final sample at
  /// the horizon. The simulator watches its access-delay / queue-wait
  /// histograms ("sim.access_delay", "sim.queue_wait") for the duration of
  /// the run and unregisters them before returning.
  obs::MetricsSnapshotter* telemetry = nullptr;
  double telemetry_interval = 0.0;
  /// Optional progress callback, fired on its own sim-time grid (same
  /// boundary semantics as telemetry) plus once at the horizon. Runs on the
  /// simulation thread; keep it cheap (the CLI wires
  /// obs::ProgressMeter::update here for --progress).
  std::function<void(const obs::ProgressStats&)> on_progress;
  double progress_interval = 0.0;
};

struct SimulationResult {
  std::int64_t completed_accesses = 0;
  double overall_mean_delay = 0.0;
  std::vector<double> per_client_mean_delay;   ///< indexed by client
  std::vector<std::int64_t> per_client_count;  ///< accesses measured
  /// Fraction of all accesses that touched node v (expectation under the
  /// strategy: load_f(v)).
  std::vector<double> per_node_access_share;
  /// Node busy-time / simulated duration (only meaningful with finite
  /// service rate; this is the node's busy fraction).
  std::vector<double> per_node_utilization;
  /// Distribution of per-access delay over the measured (post-warmup)
  /// accesses -- the same population as overall_mean_delay. Quantiles via
  /// access_delay.quantile(q); log-bucketed, so merge/compare is
  /// deterministic (see obs/histogram.hpp and docs/OBSERVABILITY.md).
  obs::LogHistogram access_delay;
  /// Distribution of per-probe queue wait (service start minus arrival at
  /// the node) over post-warmup probes. Empty unless service_rate > 0.
  obs::LogHistogram queue_wait;
  /// Time-weighted mean number of probes at each node (waiting + in
  /// service), averaged over the full duration. Zero without queueing.
  std::vector<double> per_node_mean_queue_depth;
  /// Peak number of probes simultaneously at each node.
  std::vector<std::int64_t> per_node_max_queue_depth;

  // Fault-injection outcomes (all zero / 1.0 / empty on failure-free runs;
  // measured post-warmup population, like every statistic above).
  /// Accesses that resolved unsuccessfully (timeout-exhausted or
  /// unavailable).
  std::int64_t failed_accesses = 0;
  /// Subset of failed_accesses that found no live quorum at re-selection.
  std::int64_t unavailable_accesses = 0;
  /// Attempts that hit their deadline (a failed access contributes up to
  /// max_attempts of these; a retried-then-successful one at least 1).
  std::int64_t timed_out_attempts = 0;
  /// Attempts beyond each access's first (sum of attempts - 1).
  std::int64_t retries = 0;
  /// completed / (completed + failed); 1.0 when nothing resolved.
  double availability = 1.0;
  /// Per-bucket availability when config.availability_bucket > 0 (see
  /// there); also appended to the obs series "sim.availability".
  std::vector<double> availability_series;
  /// False iff some re-selection saw a pair of live quorums that do not
  /// intersect (possible only for non-intersecting families, e.g. combined
  /// read/write systems; see quorum::check_liveness).
  bool safety_ok = true;
};

/// Runs the simulation for a placement of the instance's quorum system.
/// Clients are all nodes; client v's arrival rate is scaled by the
/// instance's (normalized) client weight times num_nodes, so uniform
/// weights give every client the configured rate.
/// Memory is O(accesses in flight + pending events), independent of the
/// horizon: only accesses a pending event can still reference are held
/// (docs/SIMULATION.md, "Memory"). A node whose probe rate reaches its
/// service rate grows its queue, and with it the pending events, without
/// bound; that is the modelled overload, not a leak.
/// \throws std::invalid_argument on an invalid placement or non-positive
///         duration/arrival rate.
SimulationResult simulate(const core::QppInstance& instance,
                          const core::Placement& placement,
                          const SimulationConfig& config);

}  // namespace qp::sim
