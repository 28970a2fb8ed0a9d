#pragma once

/// \file run_report.hpp
/// Structured run report: the one JSON document a run writes about its
/// work and its time.
///
/// Schema (docs/OBSERVABILITY.md, `qplace.run_report.v2`):
///
///   {
///     "schema": "qplace.run_report.v2",
///     "command": "<cli command or binary name>",
///     "context": {"<key>": "<string value>", ...},
///     "deterministic": {              // bit-identical across thread counts
///       "counters":   {"<name>": <uint>, ...},
///       "series":     {"<name>": [<double>, ...], ...},
///       "histograms": {"<name>": {<histogram.hpp to_json()>}, ...},
///       "profile":    {"counters": {...}, "children": {"<span>": {...}}}
///     },
///     "nondeterministic": {           // wall clock, scheduling, host
///       "profile": {"calls": <uint>, "children": {"<span>": {...}},
///                   "self_ms": <double>, "total_ms": <double>},
///       "resources": {"max_rss_kb": <uint>,  // getrusage(); POSIX only
///                     "page_faults_major": <uint>,
///                     "page_faults_minor": <uint>},
///       "<extra section>": {...}      // e.g. "pool" from exec
///     }
///   }
///
/// `counters` are the Registry totals; the two `profile` halves are the
/// ProfileCollector's call tree (profile.hpp), whose per-node counters sum
/// to those totals when the collector ran for the whole command.
///
/// The deterministic/nondeterministic split is load-bearing: tests and CI
/// compare the "deterministic" subtree byte-for-byte between `--threads 1`
/// and `--threads 8` runs (the docs/PARALLEL.md contract extended to
/// observability), while wall times/resources/pool live where no such
/// promise is made. Keys inside each object are emitted in sorted order so
/// equal data serializes to equal bytes.

#include <map>
#include <string>

#include "obs/histogram.hpp"

namespace qp::obs {

class RunReport {
 public:
  explicit RunReport(std::string command) : command_(std::move(command)) {}

  /// Adds a context key (echoed verbatim; use for flags, algorithm, seed).
  void set_context(const std::string& key, const std::string& value);

  /// Adds a named histogram to the deterministic section.
  void add_histogram(const std::string& name, const LogHistogram& histogram);

  /// Splices a raw JSON object under the given key of the nondeterministic
  /// section (e.g. "pool" -> exec::pool_stats_json()). `json` must be a
  /// complete JSON value.
  void add_nondeterministic_json(const std::string& key,
                                 const std::string& json);

  /// Serializes the report, snapshotting the Registry and folding the
  /// ProfileCollector at call time.
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
