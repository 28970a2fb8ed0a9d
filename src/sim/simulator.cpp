#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/evaluators.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "quorum/intersection.hpp"

namespace qp::sim {

namespace {

enum class EventType {
  kArrival,
  kProbeArrive,
  kProbeDone,
  /// Attempt deadline (launch + probe_timeout) for the access's attempt
  /// carried in Event::attempt; stale once the access resolved or retried.
  kTimeout,
  /// Backoff expired: re-select a quorum and launch the next attempt.
  kRetry,
};

struct Event {
  double time = 0.0;
  EventType type = EventType::kArrival;
  /// kArrival: the client issuing an access; kProbeArrive: the node the
  /// probe reaches; kProbeDone: the node that served the probe under
  /// queueing (-1 without queueing, where no node state is tracked).
  int where = 0;
  std::int64_t access = 0;  ///< the access a probe belongs to
  /// Index of the probe within its access's quorum; -1 for kArrival. Routes
  /// per-probe queue waits into the access log record.
  int probe = -1;
  /// Attempt number the event belongs to; probe/timeout events from a
  /// superseded attempt are discarded as stale.
  int attempt = 1;

  bool operator>(const Event& other) const { return time > other.time; }
};

struct Access {
  int client = 0;
  int quorum = 0;  ///< current attempt's quorum
  double start = 0.0;
  double attempt_start = 0.0;  ///< launch time of the current attempt
  int next_element_index = 0;  ///< sequential mode: next probe to launch
  int outstanding = 0;         ///< probes of the current attempt not done
  int attempt = 1;             ///< current attempt number
  bool resolved = false;       ///< completed or failed
  std::vector<int> tried;      ///< quorum indices attempted so far
};

}  // namespace

SimulationResult simulate(const core::QppInstance& instance,
                          const core::Placement& placement,
                          const SimulationConfig& config) {
  QP_REQUIRE(check::validate_instance(instance).ok(),
             "simulation instance violates its data contracts; see "
             "check::validate_instance");
  const int n = instance.num_nodes();
  if (!core::is_valid_placement(placement, instance.system().universe_size(),
                                n)) {
    throw std::invalid_argument("simulate: invalid placement");
  }
  if (!(config.duration > 0.0) || !(config.arrival_rate_per_client > 0.0)) {
    throw std::invalid_argument(
        "simulate: duration and arrival rate must be positive");
  }
  if (config.warmup < 0.0 || config.warmup >= config.duration) {
    throw std::invalid_argument("simulate: warmup must lie in [0, duration)");
  }
  if (config.latency_jitter < 0.0 || config.latency_jitter >= 1.0) {
    throw std::invalid_argument("simulate: latency_jitter must lie in [0, 1)");
  }
  if (config.relay_node >= n) {
    throw std::invalid_argument("simulate: relay_node out of range");
  }
  if (config.probe_timeout < 0.0 || config.max_attempts < 1 ||
      config.retry_backoff < 0.0) {
    throw std::invalid_argument(
        "simulate: probe_timeout and retry_backoff must be non-negative "
        "and max_attempts >= 1");
  }
  const FaultSchedule* faults = config.faults;
  if (faults != nullptr && faults->empty()) faults = nullptr;
  if (faults != nullptr) {
    if (!(config.probe_timeout > 0.0)) {
      throw std::invalid_argument(
          "simulate: fault injection requires probe_timeout > 0 (a dropped "
          "probe would otherwise hang its access forever)");
    }
    if (faults->max_node() >= n) {
      throw std::invalid_argument(
          "simulate: fault schedule references a node outside the instance");
    }
  }
  const int relay = config.relay_node < 0 ? -1 : config.relay_node;
  // Contract restatement of the throw above: a measurement window of zero
  // (or negative) length would make every statistic below vacuous.
  QP_REQUIRE(config.duration > config.warmup,
             "simulate: the measurement window (duration - warmup) must be "
             "positive");
  QP_SPAN("sim.simulate");

  std::mt19937_64 rng(config.seed);
  std::discrete_distribution<int> quorum_picker(
      instance.strategy().probabilities().begin(),
      instance.strategy().probabilities().end());

  const int num_quorums = instance.system().num_quorums();

  // Nearest-quorum policy: the chosen quorum per client is fixed by the
  // placement, so precompute it.
  std::vector<int> nearest_quorum(static_cast<std::size_t>(n), 0);
  if (config.selection == SelectionPolicy::kNearestQuorum) {
    for (int v = 0; v < n; ++v) {
      double best = std::numeric_limits<double>::infinity();
      for (int q = 0; q < num_quorums; ++q) {
        const double d = core::max_delay(instance.metric(),
                                         instance.system().quorum(q),
                                         placement, v);
        if (d < best) {
          best = d;
          nearest_quorum[static_cast<std::size_t>(v)] = q;
        }
      }
    }
  }

  // Re-selection preference order (docs/SIMULATION.md): retries draw no
  // randomness. Under kStrategy the fallback order is strategy probability
  // descending (ties: lower index); under kNearestQuorum it is
  // delta_f(v, .) ascending per client (ties: lower index).
  const bool timeouts_enabled = config.probe_timeout > 0.0;
  std::vector<int> strategy_preference;
  std::vector<std::vector<int>> nearest_preference;
  if (timeouts_enabled) {
    if (config.selection == SelectionPolicy::kStrategy) {
      strategy_preference.resize(static_cast<std::size_t>(num_quorums));
      for (int q = 0; q < num_quorums; ++q) {
        strategy_preference[static_cast<std::size_t>(q)] = q;
      }
      std::stable_sort(strategy_preference.begin(), strategy_preference.end(),
                       [&](int a, int b) {
                         return instance.strategy().probability(a) >
                                instance.strategy().probability(b);
                       });
    } else {
      nearest_preference.assign(static_cast<std::size_t>(n), {});
      for (int v = 0; v < n; ++v) {
        std::vector<double> delta(static_cast<std::size_t>(num_quorums), 0.0);
        auto& order = nearest_preference[static_cast<std::size_t>(v)];
        order.resize(static_cast<std::size_t>(num_quorums));
        for (int q = 0; q < num_quorums; ++q) {
          delta[static_cast<std::size_t>(q)] =
              core::max_delay(instance.metric(), instance.system().quorum(q),
                              placement, v);
          order[static_cast<std::size_t>(q)] = q;
        }
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
          return delta[static_cast<std::size_t>(a)] <
                 delta[static_cast<std::size_t>(b)];
        });
      }
    }
  }

  const bool queueing = config.service_rate > 0.0;
  const double service_time = queueing ? 1.0 / config.service_rate : 0.0;

  // Per-client Poisson arrival rates (weights are normalized to sum 1, so
  // uniform weights reproduce the configured per-client rate).
  std::vector<double> rate(static_cast<std::size_t>(n), 0.0);
  for (int v = 0; v < n; ++v) {
    rate[static_cast<std::size_t>(v)] =
        config.arrival_rate_per_client * n *
        instance.client_weights()[static_cast<std::size_t>(v)];
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (int v = 0; v < n; ++v) {
    if (rate[static_cast<std::size_t>(v)] <= 0.0) continue;
    std::exponential_distribution<double> gap(rate[static_cast<std::size_t>(v)]);
    queue.push({gap(rng), EventType::kArrival, v, 0});
  }

  std::vector<Access> accesses;
  // Per-access event log records, parallel to `accesses`. Only populated
  // for measured (post-warmup) accesses that pass the writer's sampling
  // filter; an empty probes vector marks "not logged" (quorums are
  // non-empty by construction).
  obs::AccessLogWriter* logger = config.access_log;
  std::vector<obs::AccessRecord> records;
  const auto logged = [&](std::int64_t id) {
    return logger != nullptr &&
           !records[static_cast<std::size_t>(id)].probes.empty();
  };
  std::vector<double> node_free(static_cast<std::size_t>(n), 0.0);
  std::vector<double> node_busy(static_cast<std::size_t>(n), 0.0);
  std::vector<double> node_probe_count(static_cast<std::size_t>(n), 0.0);

  SimulationResult result;
  result.per_client_mean_delay.assign(static_cast<std::size_t>(n), 0.0);
  result.per_client_count.assign(static_cast<std::size_t>(n), 0);
  result.per_node_access_share.assign(static_cast<std::size_t>(n), 0.0);
  result.per_node_utilization.assign(static_cast<std::size_t>(n), 0.0);
  result.per_node_mean_queue_depth.assign(static_cast<std::size_t>(n), 0.0);
  result.per_node_max_queue_depth.assign(static_cast<std::size_t>(n), 0);

  // Time-weighted queue-depth tracking (probes waiting or in service at a
  // node). Only maintained under queueing; without it probes never contend.
  std::vector<std::int64_t> node_depth(static_cast<std::size_t>(n), 0);
  std::vector<double> depth_area(static_cast<std::size_t>(n), 0.0);
  std::vector<double> depth_since(static_cast<std::size_t>(n), 0.0);
  const auto change_depth = [&](int node, double now, std::int64_t delta) {
    const auto v = static_cast<std::size_t>(node);
    depth_area[v] += static_cast<double>(node_depth[v]) * (now - depth_since[v]);
    depth_since[v] = now;
    node_depth[v] += delta;
    result.per_node_max_queue_depth[v] =
        std::max(result.per_node_max_queue_depth[v], node_depth[v]);
  };

  std::int64_t measured_accesses = 0;
  double measured_total_accesses = 0.0;  // incl. clients with 0 weight
  double total_delay_sum = 0.0;

  // Availability time series: per-bucket success fraction over access
  // start times in the measured window.
  const double bucket_width = config.availability_bucket;
  const int num_buckets =
      bucket_width > 0.0
          ? static_cast<int>(
                std::ceil((config.duration - config.warmup) / bucket_width))
          : 0;
  std::vector<std::int64_t> bucket_total(static_cast<std::size_t>(
                                             std::max(num_buckets, 0)),
                                         0);
  std::vector<std::int64_t> bucket_ok(bucket_total.size(), 0);
  const auto bucket_count = [&](double start, bool ok) {
    if (num_buckets <= 0 || start < config.warmup) return;
    const auto idx = static_cast<std::size_t>(std::min<double>(
        num_buckets - 1, std::floor((start - config.warmup) / bucket_width)));
    ++bucket_total[idx];
    if (ok) ++bucket_ok[idx];
  };

  // ---- live telemetry / progress / span tracing (docs/OBSERVABILITY.md §8)
  //
  // Counters update incrementally at the event sites below, so a mid-run
  // telemetry sample sees live totals; the zero-adds here register every
  // instrument up front so the counter *set* of a run report never
  // depends on which events a particular run encountered.
  // Totals are a pure function of (instance, placement, config) -- the
  // event loop is sequential -- so they satisfy the determinism contract.
  QP_COUNTER_ADD("sim.runs", 1);
  QP_COUNTER_ADD("sim.completed_accesses", 0);
  QP_COUNTER_ADD("sim.retries", 0);
  QP_COUNTER_ADD("sim.timeouts", 0);
  QP_COUNTER_ADD("sim.failed_accesses", 0);
  QP_COUNTER_ADD("sim.unavailable_accesses", 0);
  QP_COUNTER_ADD("sim.measured_probes", 0);
  if (logger != nullptr) QP_COUNTER_ADD("sim.logged_accesses", 0);

  obs::MetricsSnapshotter* telemetry =
      config.telemetry_interval > 0.0 ? config.telemetry : nullptr;
  if (telemetry != nullptr) {
    telemetry->watch_histogram("sim.access_delay", &result.access_delay);
    telemetry->watch_histogram("sim.queue_wait", &result.queue_wait);
  }
  const bool progress_on =
      static_cast<bool>(config.on_progress) && config.progress_interval > 0.0;
  const auto take_sample = [&](double t) {
    const std::int64_t resolved = measured_accesses + result.failed_accesses;
    telemetry->sample(
        t, {{"sim.availability",
             resolved > 0 ? static_cast<double>(measured_accesses) /
                                static_cast<double>(resolved)
                          : 1.0}});
  };
  const auto report_progress = [&](double t) {
    obs::ProgressStats stats;
    stats.sim_time = t;
    stats.duration = config.duration;
    stats.completed = measured_accesses;
    stats.failed = result.failed_accesses;
    stats.resolved = stats.completed + stats.failed;
    stats.availability =
        stats.resolved > 0 ? static_cast<double>(stats.completed) /
                                 static_cast<double>(stats.resolved)
                           : 1.0;
    stats.p99 = result.access_delay.count() > 0
                    ? result.access_delay.quantile(0.99)
                    : std::numeric_limits<double>::quiet_NaN();
    config.on_progress(stats);
  };
  // Grid semantics: boundary b fires when the next event's time exceeds b,
  // i.e. the sample/tick at b reflects exactly the events with time <= b.
  double next_sample = telemetry != nullptr
                           ? config.telemetry_interval
                           : std::numeric_limits<double>::infinity();
  double next_progress = progress_on
                             ? config.progress_interval
                             : std::numeric_limits<double>::infinity();
  const auto advance_time = [&](double now) {
    while (next_sample < now) {
      take_sample(next_sample);
      next_sample += config.telemetry_interval;
    }
    while (next_progress < now) {
      report_progress(next_progress);
      next_progress += config.progress_interval;
    }
  };

  // Causal span trees (docs/OBSERVABILITY.md §8): when tracing is on, every
  // access emits a parent "sim.access" span with child spans per attempt /
  // probe / backoff / re-selection, in the sim-time pid domain with JSON
  // args, so `qplace analyze --trace` can reconcile the span arithmetic
  // with the access log.
  obs::TraceRecorder& trace = obs::TraceRecorder::instance();
  const bool tracing = trace.enabled();
  const auto sim_span = [&](const char* name, double from, double to,
                            const char* args) {
    constexpr double kScale = obs::TraceRecorder::kSimTimeScaleUs;
    trace.record_sim_span(name, from * kScale, (to - from) * kScale, args);
  };

  // Launches the probe for element index `idx` of the access's quorum at
  // time `when`: the probe reaches its node after the metric distance
  // (routed through the relay when configured), scaled by jitter and any
  // active gray window, then (with queueing) waits for the node's FIFO
  // queue. Returns the event to schedule next (kProbeArrive under queueing
  // so that service is granted in true arrival order, kProbeDone
  // otherwise), or nothing when the probe is dropped: partitions drop
  // probes *sent* while active (checked against the client->node pair, so
  // relay routing does not circumvent them), crashes drop probes *arriving*
  // while the node is down.
  std::uniform_real_distribution<double> jitter(1.0 - config.latency_jitter,
                                                1.0 + config.latency_jitter);
  const auto launch_probe =
      [&](const Access& access, std::int64_t id, int idx,
          double when) -> std::optional<Event> {
    const quorum::Quorum& q = instance.system().quorum(access.quorum);
    const int element = q[static_cast<std::size_t>(idx)];
    const int node = placement[static_cast<std::size_t>(element)];
    const double factor = config.latency_jitter > 0.0 ? jitter(rng) : 1.0;
    const double gray =
        faults != nullptr ? faults->gray_factor(node, when) : 1.0;
    const double path =
        relay >= 0 ? instance.metric()(access.client, relay) +
                         instance.metric()(relay, node)
                   : instance.metric()(access.client, node);
    const double arrive = when + factor * gray * path;
    const bool delivered =
        faults == nullptr || (!faults->partitioned(access.client, node, when) &&
                              !faults->crashed(node, arrive));
    if (delivered && when >= config.warmup) {
      node_probe_count[static_cast<std::size_t>(node)] += 1.0;
      QP_COUNTER_ADD("sim.measured_probes", 1);
    }
    if (logger != nullptr && logged(id)) {
      obs::AccessProbe& probe =
          records[static_cast<std::size_t>(id)]
              .probes[static_cast<std::size_t>(idx)];
      probe.element = element;
      probe.node = node;
      probe.net_delay = delivered ? arrive - when : -1.0;
    }
    if (tracing) {
      char args[160];
      std::snprintf(args, sizeof(args),
                    "{\"id\": %lld, \"attempt\": %d, \"probe\": %d, "
                    "\"element\": %d, \"node\": %d, \"dropped\": %s}",
                    static_cast<long long>(id), access.attempt, idx, element,
                    node, delivered ? "false" : "true");
      sim_span("sim.probe", when, delivered ? arrive : when, args);
    }
    if (!delivered) return std::nullopt;
    if (queueing) {
      return Event{arrive, EventType::kProbeArrive, node, id, idx,
                   access.attempt};
    }
    return Event{arrive, EventType::kProbeDone, -1, id, idx, access.attempt};
  };

  // Launches the current attempt of `id` at time `now`: resets the log
  // record to the attempt's quorum, fires the probes (all at once in
  // parallel mode, the first in sequential mode) and arms the deadline.
  const auto launch_attempt = [&](std::int64_t id, double now) {
    Access& access = accesses[static_cast<std::size_t>(id)];
    const quorum::Quorum& q = instance.system().quorum(access.quorum);
    access.attempt_start = now;
    access.outstanding = static_cast<int>(q.size());
    if (logger != nullptr && logged(id)) {
      obs::AccessRecord& record = records[static_cast<std::size_t>(id)];
      record.quorum = access.quorum;
      record.probes.assign(q.size(), obs::AccessProbe{});
    }
    if (config.mode == AccessMode::kParallel) {
      for (int idx = 0; idx < static_cast<int>(q.size()); ++idx) {
        if (auto event = launch_probe(access, id, idx, now)) {
          queue.push(*event);
        }
      }
    } else {
      access.next_element_index = 1;
      if (auto event = launch_probe(access, id, 0, now)) {
        queue.push(*event);
      }
    }
    if (timeouts_enabled) {
      queue.push({now + config.probe_timeout, EventType::kTimeout,
                  access.client, id, -1, access.attempt});
    }
  };

  // Failure-aware re-selection at time `now`: the highest-preference
  // quorum that quorum::check_liveness certifies live from the client's
  // perspective, favoring quorums this access has not tried yet; -1 when
  // none is live (the access is unavailable).
  const auto select_quorum = [&](const Access& access, double now) -> int {
    const std::vector<bool> failed =
        faults != nullptr
            ? faults->failed_elements(placement, access.client, now)
            : std::vector<bool>(
                  static_cast<std::size_t>(
                      instance.system().universe_size()),
                  false);
    const quorum::LivenessReport report =
        quorum::check_liveness(instance.system(), failed);
    result.safety_ok = result.safety_ok && report.safe();
    if (!report.available()) return -1;
    std::vector<bool> live(static_cast<std::size_t>(num_quorums), false);
    for (const int q : report.live_quorums) {
      live[static_cast<std::size_t>(q)] = true;
    }
    const std::vector<int>& preference =
        config.selection == SelectionPolicy::kStrategy
            ? strategy_preference
            : nearest_preference[static_cast<std::size_t>(access.client)];
    int fallback = -1;
    for (const int q : preference) {
      if (!live[static_cast<std::size_t>(q)]) continue;
      if (fallback < 0) fallback = q;
      if (std::find(access.tried.begin(), access.tried.end(), q) ==
          access.tried.end()) {
        return q;
      }
    }
    return fallback;  // every live quorum tried already: reuse the best
  };

  const auto finish_record = [&](std::int64_t id, double now,
                                 obs::AccessOutcome outcome) {
    if (logger == nullptr || !logged(id)) return;
    obs::AccessRecord& record = records[static_cast<std::size_t>(id)];
    const Access& access = accesses[static_cast<std::size_t>(id)];
    record.finish = now;
    record.attempts = static_cast<int>(access.tried.size());
    record.outcome = outcome;
    logger->record(std::move(record));
    QP_COUNTER_ADD("sim.logged_accesses", 1);
    // Leave a moved-from empty record behind; logged() is false for it
    // from now on, which is correct -- the access is resolved.
  };

  const auto fail_access = [&](std::int64_t id, double now,
                               obs::AccessOutcome outcome) {
    Access& access = accesses[static_cast<std::size_t>(id)];
    access.resolved = true;
    if (access.start >= config.warmup) {
      ++result.failed_accesses;
      QP_COUNTER_ADD("sim.failed_accesses", 1);
      if (outcome == obs::AccessOutcome::kUnavailable) {
        ++result.unavailable_accesses;
        QP_COUNTER_ADD("sim.unavailable_accesses", 1);
      }
      bucket_count(access.start, false);
    }
    if (tracing) {
      char args[160];
      std::snprintf(args, sizeof(args),
                    "{\"id\": %lld, \"client\": %d, \"quorum\": %d, "
                    "\"attempts\": %d, \"outcome\": \"%s\"}",
                    static_cast<long long>(id), access.client, access.quorum,
                    static_cast<int>(access.tried.size()),
                    obs::access_outcome_name(outcome).c_str());
      sim_span("sim.access", access.start, now, args);
    }
    finish_record(id, now, outcome);
  };

  // Bounded exponential backoff after the k-th timed-out attempt
  // (k = 1-based): base * 2^(k-1), capped.
  const auto backoff = [&](int attempts_failed) {
    double wait =
        std::ldexp(config.retry_backoff, std::max(attempts_failed - 1, 0));
    if (config.retry_backoff_cap > 0.0) {
      wait = std::min(wait, config.retry_backoff_cap);
    }
    return wait;
  };

  while (!queue.empty() && queue.top().time <= config.duration) {
    const Event event = queue.top();
    queue.pop();
    advance_time(event.time);

    if (event.type == EventType::kArrival) {
      // Schedule this client's next access.
      std::exponential_distribution<double> gap(
          rate[static_cast<std::size_t>(event.where)]);
      queue.push({event.time + gap(rng), EventType::kArrival, event.where, 0});

      Access access;
      access.client = event.where;
      // The first attempt follows the paper's model (a strategy draw, or
      // the fixed nearest quorum) with no liveness knowledge: the client
      // only learns of failures through timeouts.
      access.quorum = config.selection == SelectionPolicy::kNearestQuorum
                          ? nearest_quorum[static_cast<std::size_t>(event.where)]
                          : quorum_picker(rng);
      access.start = event.time;
      access.tried.push_back(access.quorum);
      const auto& q = instance.system().quorum(access.quorum);
      const auto id = static_cast<std::int64_t>(accesses.size());
      if (access.start >= config.warmup) measured_total_accesses += 1.0;
      if (logger != nullptr) {
        records.emplace_back();
        if (access.start >= config.warmup && logger->sampled(id)) {
          obs::AccessRecord& record = records.back();
          record.id = id;
          record.client = access.client;
          record.quorum = access.quorum;
          record.relay = relay;
          record.start = access.start;
          record.probes.resize(q.size());
        }
      }
      accesses.push_back(std::move(access));
      launch_attempt(id, event.time);
      continue;
    }

    if (event.type == EventType::kTimeout) {
      Access& access = accesses[static_cast<std::size_t>(event.access)];
      if (access.resolved || access.attempt != event.attempt ||
          access.outstanding == 0) {
        continue;  // stale: the attempt completed or was superseded
      }
      if (access.start >= config.warmup) {
        ++result.timed_out_attempts;
        QP_COUNTER_ADD("sim.timeouts", 1);
      }
      if (tracing) {
        char args[160];
        std::snprintf(args, sizeof(args),
                      "{\"id\": %lld, \"attempt\": %d, \"quorum\": %d, "
                      "\"outcome\": \"timeout\"}",
                      static_cast<long long>(event.access), access.attempt,
                      access.quorum);
        sim_span("sim.attempt", access.attempt_start, event.time, args);
      }
      if (access.attempt >= config.max_attempts) {
        fail_access(event.access, event.time, obs::AccessOutcome::kTimeout);
        continue;
      }
      const double wait = backoff(access.attempt);
      if (tracing) {
        char args[96];
        std::snprintf(args, sizeof(args), "{\"id\": %lld, \"attempt\": %d}",
                      static_cast<long long>(event.access), access.attempt);
        sim_span("sim.backoff", event.time, event.time + wait, args);
      }
      ++access.attempt;  // invalidates the attempt's in-flight probe events
      queue.push({event.time + wait, EventType::kRetry, access.client,
                  event.access, -1, access.attempt});
      continue;
    }

    if (event.type == EventType::kRetry) {
      Access& access = accesses[static_cast<std::size_t>(event.access)];
      if (access.resolved || access.attempt != event.attempt) continue;
      const int next = select_quorum(access, event.time);
      if (tracing) {
        char args[120];
        std::snprintf(args, sizeof(args),
                      "{\"id\": %lld, \"attempt\": %d, \"quorum\": %d}",
                      static_cast<long long>(event.access), access.attempt,
                      next);
        sim_span("sim.reselect", event.time, event.time, args);
      }
      if (next < 0) {
        fail_access(event.access, event.time,
                    obs::AccessOutcome::kUnavailable);
        continue;
      }
      if (access.start >= config.warmup) {
        ++result.retries;
        QP_COUNTER_ADD("sim.retries", 1);
      }
      access.quorum = next;
      access.tried.push_back(next);
      launch_attempt(event.access, event.time);
      continue;
    }

    if (event.type == EventType::kProbeArrive) {
      // Grant service in true arrival order (events are processed by time).
      // Nodes serve every delivered probe, including probes of attempts
      // that already timed out -- the work was sent, the node does it.
      const int node = event.where;
      const double start_service =
          std::max(event.time, node_free[static_cast<std::size_t>(node)]);
      const double done = start_service + service_time;
      node_free[static_cast<std::size_t>(node)] = done;
      node_busy[static_cast<std::size_t>(node)] += service_time;
      change_depth(node, event.time, +1);
      if (event.time >= config.warmup) {
        result.queue_wait.record(start_service - event.time);
      }
      const Access& access = accesses[static_cast<std::size_t>(event.access)];
      if (!access.resolved && access.attempt == event.attempt &&
          logger != nullptr && logged(event.access)) {
        records[static_cast<std::size_t>(event.access)]
            .probes[static_cast<std::size_t>(event.probe)]
            .queue_wait = start_service - event.time;
      }
      queue.push({done, EventType::kProbeDone, node, event.access,
                  event.probe, event.attempt});
      continue;
    }

    // kProbeDone.
    if (queueing) change_depth(event.where, event.time, -1);
    Access& access = accesses[static_cast<std::size_t>(event.access)];
    if (access.resolved || access.attempt != event.attempt) {
      continue;  // a late reply to a superseded attempt
    }
    --access.outstanding;
    if (config.mode == AccessMode::kSequential &&
        access.next_element_index <
            static_cast<int>(
                instance.system().quorum(access.quorum).size())) {
      const int idx = access.next_element_index++;
      if (auto next = launch_probe(access, event.access, idx, event.time)) {
        queue.push(*next);
      }
      continue;
    }
    if (access.outstanding == 0) {
      access.resolved = true;
      if (access.start >= config.warmup) {
        const double delay = event.time - access.start;
        total_delay_sum += delay;
        result.access_delay.record(delay);
        ++measured_accesses;
        QP_COUNTER_ADD("sim.completed_accesses", 1);
        result.per_client_mean_delay[static_cast<std::size_t>(access.client)] +=
            delay;
        ++result.per_client_count[static_cast<std::size_t>(access.client)];
        bucket_count(access.start, true);
      }
      if (tracing) {
        char args[160];
        std::snprintf(args, sizeof(args),
                      "{\"id\": %lld, \"attempt\": %d, \"quorum\": %d, "
                      "\"outcome\": \"ok\"}",
                      static_cast<long long>(event.access), access.attempt,
                      access.quorum);
        sim_span("sim.attempt", access.attempt_start, event.time, args);
        std::snprintf(args, sizeof(args),
                      "{\"id\": %lld, \"client\": %d, \"quorum\": %d, "
                      "\"attempts\": %d, \"outcome\": \"ok\"}",
                      static_cast<long long>(event.access), access.client,
                      access.quorum, static_cast<int>(access.tried.size()));
        sim_span("sim.access", access.start, event.time, args);
      }
      finish_record(event.access, event.time, obs::AccessOutcome::kOk);
    }
  }

  // Fire any boundaries still pending at the horizon, then close the series
  // with one final sample/tick at exactly t = duration (the grid above only
  // fires strictly below it).
  advance_time(config.duration);
  if (telemetry != nullptr) {
    take_sample(config.duration);
    telemetry->watch_histogram("sim.access_delay", nullptr);
    telemetry->watch_histogram("sim.queue_wait", nullptr);
  }
  if (progress_on) report_progress(config.duration);

  result.completed_accesses = measured_accesses;
  result.overall_mean_delay =
      measured_accesses > 0
          ? total_delay_sum / static_cast<double>(measured_accesses)
          : 0.0;
  for (int v = 0; v < n; ++v) {
    if (result.per_client_count[static_cast<std::size_t>(v)] > 0) {
      result.per_client_mean_delay[static_cast<std::size_t>(v)] /=
          static_cast<double>(
              result.per_client_count[static_cast<std::size_t>(v)]);
    }
    if (measured_total_accesses > 0.0) {
      result.per_node_access_share[static_cast<std::size_t>(v)] =
          node_probe_count[static_cast<std::size_t>(v)] /
          measured_total_accesses;
    }
    result.per_node_utilization[static_cast<std::size_t>(v)] =
        node_busy[static_cast<std::size_t>(v)] / config.duration;
    // Close the depth integral at the horizon (probes still in flight at
    // `duration` contribute their tail).
    change_depth(v, config.duration, 0);
    result.per_node_mean_queue_depth[static_cast<std::size_t>(v)] =
        depth_area[static_cast<std::size_t>(v)] / config.duration;
  }
  const std::int64_t resolved = measured_accesses + result.failed_accesses;
  result.availability =
      resolved > 0
          ? static_cast<double>(measured_accesses) /
                static_cast<double>(resolved)
          : 1.0;
  result.availability_series.reserve(bucket_total.size());
  for (std::size_t b = 0; b < bucket_total.size(); ++b) {
    const double fraction =
        bucket_total[b] > 0 ? static_cast<double>(bucket_ok[b]) /
                                  static_cast<double>(bucket_total[b])
                            : 1.0;
    result.availability_series.push_back(fraction);
    QP_SERIES_APPEND("sim.availability", fraction);
  }
  // The sim.* counters were updated incrementally at the event sites above
  // (and registered before the loop), so their final totals are already in
  // the registry -- identical to the per-run totals in `result`.
  return result;
}

}  // namespace qp::sim
