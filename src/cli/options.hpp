#pragma once

/// \file options.hpp
/// Dependency-free command-line parsing and string-to-object factories for
/// the `qplace` CLI tool (tools/qplace.cpp). Kept in the library so the
/// parsing and factory logic is unit-testable.

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::cli {

/// `qplace <command> [--flag=value | --flag value | --switch]...`
class ParsedArgs {
 public:
  ParsedArgs(std::string command, std::map<std::string, std::string> flags)
      : command_(std::move(command)), flags_(std::move(flags)) {}

  const std::string& command() const { return command_; }
  bool has(const std::string& name) const { return flags_.count(name) > 0; }

  /// Value of --name, or \p fallback when absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// \throws std::invalid_argument when absent.
  std::string require(const std::string& name) const;

  /// Typed accessors; \throws std::invalid_argument on unparsable values.
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Flags that were provided but never read -- used to reject typos.
  std::vector<std::string> unread_flags() const;

  /// Every flag as provided, for introspection (e.g. echoing the invocation
  /// into a run report's context). Does not mark anything as read.
  const std::map<std::string, std::string>& raw_flags() const {
    return flags_;
  }

 private:
  std::string command_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> read_;
};

/// Parses raw arguments (argv[1..]). The first token is the command; each
/// later token must be --name=value, --name value, or a bare --switch
/// (stored with value "true").
/// \throws std::invalid_argument on malformed input or a missing command.
ParsedArgs parse_args(const std::vector<std::string>& args);

/// Builds a quorum system from flags: --system
/// grid|majority|fpp|tree|wall|star|singleton with --k/--n/--t/--q/
/// --height/--widths as appropriate (see tools/qplace.cpp --help).
/// \throws std::invalid_argument on unknown systems or bad parameters.
quorum::QuorumSystem make_system(const ParsedArgs& args);

/// Builds a topology from flags: --topology
/// path|cycle|star|complete|mesh|geometric|erdos-renyi|tree|ba|waxman|
/// cliques|hypercube|torus|fattree|broom, sized by --nodes and seeded by
/// --seed; or --graph-file <path> to load an edge list (see graph/io.hpp),
/// which overrides --topology.
graph::Graph make_topology(const ParsedArgs& args, std::mt19937_64& rng);

/// Nodes of the graph make_topology builds from these flags, computed from
/// the flags alone; std::nullopt for --graph-file, whose size is known only
/// once the file is read.
std::optional<std::int64_t> topology_nodes(const ParsedArgs& args);

/// The most address space one up-front allocation may take: the n x n
/// metric (metric_bytes) or the dense tableau of the Thm 5.1 GAP LP
/// (gap_tableau_bytes). Commands refuse larger instances before allocating.
/// This bounds address space, not residency: the tableau's pages become
/// resident only once they hold a nonzero (lp/simplex.hpp).
inline constexpr double kAllocationBudgetBytes = 2.0 * 1024 * 1024 * 1024;

/// Bytes of the metric on `nodes` nodes: 8 n^2.
double metric_bytes(std::int64_t nodes);

/// Bytes of address space of the dense simplex tableau of the Thm 5.1 GAP
/// LP (15)-(18) on `nodes` nodes and `universe` elements: n + |U| rows by
/// n|U| + n + |U| columns of doubles. Only the pages that come to hold a
/// nonzero become resident, which on these LPs is a small part of it.
double gap_tableau_bytes(std::int64_t nodes, std::int64_t universe);

/// \throws std::length_error when the metric on `nodes` nodes would exceed
/// kAllocationBudgetBytes; the message names the size. Needs no quorum
/// system, so a command can refuse before building one.
void require_metric_fits(std::int64_t nodes);

/// require_metric_fits, and with `gap_lp` the same for the Thm 5.1 GAP LP
/// tableau on `nodes` nodes and `universe` elements.
/// \throws std::length_error naming the size that does not fit.
void require_instance_fits(std::int64_t nodes, int universe, bool gap_lp);

/// Applies --threads N to the exec thread pool (docs/PARALLEL.md) and
/// returns the effective pool size. Absent or N < 1 keeps the default
/// (QPLACE_THREADS env var, else hardware concurrency). Results never depend
/// on the thread count -- see the determinism contract.
/// \throws std::invalid_argument on an unparsable value.
int configure_threads(const ParsedArgs& args);

}  // namespace qp::cli
