#pragma once

/// \file run_report.hpp
/// Structured run report: one JSON document summarizing a solver run.
///
/// Schema (docs/OBSERVABILITY.md, `qplace.run_report.v1`):
///
///   {
///     "schema": "qplace.run_report.v1",
///     "command": "<cli command or binary name>",
///     "context": {"<key>": "<string value>", ...},
///     "deterministic": {              // bit-identical across thread counts
///       "counters":   {"<name>": <uint>, ...},
///       "series":     {"<name>": [<double>, ...], ...},
///       "histograms": {"<name>": {<histogram.hpp to_json()>}, ...}
///     },
///     "nondeterministic": {           // wall clock, scheduling, host
///       "timers": {"<name>": {"calls": <uint>, "total_ms": <double>}, ...},
///       "resources": {"max_rss_kb": <uint>,  // getrusage(); POSIX only
///                     "page_faults_major": <uint>,
///                     "page_faults_minor": <uint>},
///       "<extra section>": {...}      // e.g. "pool" from exec
///     }
///   }
///
/// The deterministic/nondeterministic split is load-bearing: tests and CI
/// compare the "deterministic" subtree byte-for-byte between `--threads 1`
/// and `--threads 8` runs (the docs/PARALLEL.md contract extended to
/// observability), while timers/resources/pool live where no such promise is
/// made. Keys inside each object are emitted in sorted order so equal data
/// serializes to equal bytes.

#include <map>
#include <string>

#include "obs/histogram.hpp"

namespace qp::obs {

class RunReport {
 public:
  explicit RunReport(std::string command) : command_(std::move(command)) {}

  /// Adds a context key (echoed verbatim; use for flags, algorithm, seed).
  void set_context(const std::string& key, const std::string& value);

  /// The accumulated context map; other artifact writers (the profiler's
  /// `qplace.profile.v1` document) echo the same provenance block.
  const std::map<std::string, std::string>& context() const {
    return context_;
  }

  /// Adds a named histogram to the deterministic section.
  void add_histogram(const std::string& name, const LogHistogram& histogram);

  /// Splices a raw JSON object under the given key of the nondeterministic
  /// section (e.g. "pool" -> exec::pool_stats_json()). `json` must be a
  /// complete JSON value.
  void add_nondeterministic_json(const std::string& key,
                                 const std::string& json);

  /// Serializes the report, snapshotting the Registry at call time.
  std::string to_json() const;

 private:
  std::string command_;
  std::map<std::string, std::string> context_;
  std::map<std::string, std::string> histograms_;  // name -> rendered JSON
  std::map<std::string, std::string> extra_nondeterministic_;
  // getrusage snapshot, rendered once at the first to_json() call so a
  // report serializes to the same bytes every time (serialization itself
  // faults pages and would otherwise perturb the counts).
  mutable std::string resources_json_;
};

/// Writes `contents` to `path` atomically enough for CLI use (truncate +
/// write). \throws std::runtime_error when the file cannot be written.
void write_file(const std::string& path, const std::string& contents);

}  // namespace qp::obs
