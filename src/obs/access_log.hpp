#pragma once

/// \file access_log.hpp
/// Per-access event log for the message-level simulator (schema
/// `qplace.access_log.v2`, docs/OBSERVABILITY.md §5, docs/SIMULATION.md).
///
/// The aggregate observability layer (histograms, counters) answers "what
/// was the latency distribution?"; this log answers the paper's
/// *per-access* questions: which client saw which delta_f(v, Q), through
/// which relay, against which quorum, split into network delay and queue
/// wait per quorum element -- and, under fault injection, how many attempts
/// the access needed and how it ended. One JSONL line per resolved
/// post-warmup access (completed OR failed):
///
///   {"id": 12, "client": 3, "quorum": 1, "relay": -1,
///    "attempts": 2, "outcome": "ok", "start": 1.25, "finish": 3.5,
///    "probes": [[element, node, net_delay, queue_wait], ...]}
///
/// `attempts` counts quorum selections (1 without retries); `outcome` is
/// "ok", "timeout" (K attempts all timed out) or "unavailable" (no live
/// quorum at re-selection). The probes array describes the FINAL attempt;
/// a probe that never replied (dropped by a crash/partition, or still in
/// flight when the attempt timed out) carries net_delay = -1. Readers of
/// the v1 schema see the two fields defaulted (attempts = 1, outcome ok):
/// parse_access_log accepts both versions.
///
/// The header line carries the schema tag and a string-valued context map
/// (instance digest, mode, seed, sampling knobs, fault-schedule digest):
///
///   {"schema": "qplace.access_log.v2", "context": {"seed": "1", ...}}
///
/// Determinism contract: the simulator's event loop is sequential, so the
/// full byte stream is a pure function of (instance, placement, config) --
/// bit-identical across `--threads 1` and `--threads 8` like every other
/// deterministic artifact (docs/PARALLEL.md). Lines are emitted sorted by
/// access id (= access start order); accesses still in flight at the
/// horizon are absent, exactly as they are absent from the aggregate
/// statistics.
///
/// Sampling keeps million-access runs bounded without perturbing the
/// simulation: the keep/drop decision for access id hashes (sample_seed,
/// id) and never touches the simulation's RNG, so
///  - a sampled log is a subset of the full log, in the same order, and
///  - a head-limited log is an exact byte prefix of the unlimited one.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qp::obs {

/// One probe of an access: quorum element, the node hosting it, the network
/// (propagation) delay of the probe, and the FIFO wait before service
/// (0 without queueing or when the probe never reached service).
struct AccessProbe {
  int element = 0;
  int node = 0;
  /// One-way propagation delay; -1 when the probe never replied (dropped
  /// by a crash/partition or unanswered at the attempt deadline).
  double net_delay = 0.0;
  double queue_wait = 0.0;
};

/// How an access resolved (docs/SIMULATION.md). Everything except kOk only
/// occurs under fault injection / probe timeouts.
enum class AccessOutcome {
  kOk,           ///< a quorum replied in full within the deadline
  kTimeout,      ///< all K attempts timed out
  kUnavailable,  ///< no live quorum existed at re-selection time
};

/// Schema spelling of an outcome ("ok" / "timeout" / "unavailable").
std::string access_outcome_name(AccessOutcome outcome);
/// Inverse of access_outcome_name. \throws std::runtime_error on an
/// unknown spelling.
AccessOutcome access_outcome_from_name(const std::string& name);

/// One resolved quorum access.
struct AccessRecord {
  std::int64_t id = 0;  ///< sequential in access start order
  int client = 0;
  int quorum = 0;   ///< final attempt's quorum index
  int relay = -1;   ///< Thm 1.2 relay v0 when routed through one, else -1
  int attempts = 1;  ///< quorum selections, 1 without retries
  AccessOutcome outcome = AccessOutcome::kOk;
  double start = 0.0;
  double finish = 0.0;  ///< completion, or the time of the failure verdict
  std::vector<AccessProbe> probes;  ///< final attempt only
};

/// Sampling knobs. Both filters compose: the probabilistic filter picks the
/// survivor set, the head limit truncates it.
struct AccessLogConfig {
  /// Keep each access independently with this probability (1 = keep all).
  /// Must lie in [0, 1].
  double sample_rate = 1.0;
  /// Keep at most this many (surviving) records; 0 = unlimited.
  std::int64_t head_limit = 0;
  /// Seed of the sampling hash. Deliberately separate from the simulation
  /// seed so changing it re-samples without re-simulating.
  std::uint64_t sample_seed = 0;
};

/// Renders one record as a compact single-line JSON object (no newline).
/// Doubles use %.17g, the repo-wide byte-stable float format.
std::string render_access_record(const AccessRecord& record);

/// Deterministic per-id keep/drop decision of the probabilistic filter.
bool access_log_sampled(const AccessLogConfig& config, std::int64_t id);

/// Collects sampled records during a simulation and writes the JSONL
/// document to a stream on close(). Records are buffered (only the sampled
/// ones -- that is what bounds memory on huge runs) and flushed sorted by
/// id, so the byte stream is independent of completion order. With a head
/// limit only the head_limit smallest ids seen so far are held, so a
/// head-limited log costs O(head_limit) memory however long the run.
class AccessLogWriter {
 public:
  /// \p out must outlive the writer; \p context is echoed into the header
  /// line (string-valued, like the run report's context). \throws
  /// std::invalid_argument when sample_rate is outside [0, 1] or head_limit
  /// is negative.
  AccessLogWriter(std::ostream& out, AccessLogConfig config,
                  const std::map<std::string, std::string>& context = {});
  ~AccessLogWriter();
  AccessLogWriter(const AccessLogWriter&) = delete;
  AccessLogWriter& operator=(const AccessLogWriter&) = delete;

  /// True when the record with this id would be kept by the probabilistic
  /// filter -- callers may skip building the record otherwise.
  bool sampled(std::int64_t id) const {
    return access_log_sampled(config_, id);
  }

  /// Buffers the record if sampled. Ids must be unique across the run.
  void record(const AccessRecord& record);

  /// Writes header + records (sorted by id, head-truncated) and flushes.
  /// Idempotent; also invoked by the destructor.
  void close();

  /// Sampled records passed to record(), including those a head limit
  /// leaves out of the document.
  std::int64_t recorded() const { return recorded_; }

 private:
  std::ostream& out_;
  AccessLogConfig config_;
  std::map<std::string, std::string> context_;
  /// (id, rendered line); a max-heap by id while head_limit > 0.
  std::vector<std::pair<std::int64_t, std::string>> buffered_;
  std::int64_t recorded_ = 0;
  bool closed_ = false;
};

/// A parsed access log: the header's context map plus all records.
struct ParsedAccessLog {
  std::map<std::string, std::string> context;
  std::vector<AccessRecord> records;

  /// Context value lookup with fallback.
  std::string context_or(const std::string& key,
                         const std::string& fallback) const;
};

/// Parses a `qplace.access_log.v2` (or legacy v1) JSONL document; v1
/// records get attempts = 1 and outcome "ok".
/// \throws std::runtime_error on malformed JSON, a missing/foreign schema
/// tag, or records missing required fields.
ParsedAccessLog parse_access_log(std::istream& in);

}  // namespace qp::obs
