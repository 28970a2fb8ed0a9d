#pragma once

/// \file lint.hpp
/// qplace-lint: the project-specific static analyzer (docs/CONTRACTS.md,
/// "Mechanically enforced rules"). Three rule families guard the properties
/// the repo's headline guarantees rest on:
///
///  1. determinism  -- bans ambient nondeterminism (unordered containers,
///     unseeded RNG, wall clocks) outside an explicit allowlist, so the
///     bit-identical-at-any-thread-count contract (docs/PARALLEL.md) cannot
///     be silently broken by a future change;
///  2. layering     -- checks the `#include` graph against the declared
///     module DAG, reporting the offending include chain, so the
///     solver/validator/observability layers cannot grow back-edges;
///  3. contract coverage -- audits every public solver entry point that
///     returns a Placement / Assignment / LP solution for a reachable
///     QP_REQUIRE / QP_INVARIANT / validate_* call, cross-checked against a
///     committed manifest so regressions surface as reviewable diffs.
///
/// The tool is deliberately token-based (no libclang): it lexes C++ into
/// comment/string-stripped code plus the comment stream (for escape
/// pragmas), which is exact enough for these rules and keeps the analyzer
/// dependency-free and fast. Conservatism is a feature: `unordered_map` is
/// banned on *use*, not just on iteration, because any use is one refactor
/// away from an iteration-order dependency.
///
/// Escape pragma syntax (the reason is mandatory and must be non-empty):
///
///     // qplace-lint: allow(<rule>[,<rule>...]) -- <reason>
///
/// A pragma suppresses findings of the named rules on its own line and on
/// the line directly below it, and must additionally be listed in the
/// committed allowlist manifest (`pragma <file> <rule>`), so every escape
/// is visible in review twice: at the site and in the manifest.

#include <map>
#include <set>
#include <string>
#include <vector>

namespace qp::lint {

/// One diagnostic. `file` is relative to the lint root; findings are
/// reported sorted by (file, line, rule) and formatted as
/// "file:line: [rule] message".
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  std::string to_string() const;
};

/// Module map + allowed-dependency DAG (tools/lint/layers.conf).
///
/// Assignment rules map a path prefix (or an exact file) to a module name;
/// the most specific match wins, which is how a single directory can host
/// files of different layers (src/check/contracts.* is the leaf `contracts`
/// layer while src/check/validate.* sits above the core model types).
/// `allow A B` edges are interpreted transitively: module A may include
/// headers of any module reachable from A in the declared DAG. The declared
/// graph must be acyclic; a cycle is a configuration error.
struct LayerConfig {
  std::vector<std::string> include_roots;  ///< include-resolution roots
  std::vector<std::pair<std::string, std::string>> assignments;
  std::map<std::string, std::set<std::string>> allowed;
};

/// Determinism-rule allowlist (tools/lint/allowlist.conf): blanket
/// per-directory grants (`dir <prefix> <rule>`) for layers whose job is the
/// banned construct (src/obs/ span clocks), plus the manifest of every escape
/// pragma in the tree (`pragma <file> <rule>`).
struct Allowlist {
  std::vector<std::pair<std::string, std::string>> dir_grants;
  std::set<std::pair<std::string, std::string>> pragma_sites;
};

/// Contract-coverage manifest (tools/lint/contracts.manifest): the audited
/// return types (`type <name>`) and the expected audited-function set
/// (`function <name> <header>`). The tool recomputes the set from the
/// headers and fails on any drift in either direction.
struct ContractManifest {
  std::set<std::string> audited_types;
  std::map<std::string, std::string> functions;  ///< name -> declaring header
};

struct Options {
  std::string root;                      ///< repo root (absolute or relative)
  std::vector<std::string> scan_paths;   ///< files/dirs relative to root
  std::vector<std::string> audit_dirs;   ///< contract-audit dirs rel. to root
};

struct Result {
  std::vector<Finding> findings;
  std::vector<std::string> config_errors;  ///< non-empty => exit 2
  int files_scanned = 0;
  /// Recomputed audited-function set (name -> declaring header), for
  /// --print-manifest and for diagnosing manifest drift.
  std::map<std::string, std::string> computed_functions;

  bool clean() const { return findings.empty() && config_errors.empty(); }
};

/// Load the three config files from `config_dir`. Parse problems are
/// appended to `errors`.
LayerConfig load_layer_config(const std::string& path,
                              std::vector<std::string>& errors);
Allowlist load_allowlist(const std::string& path,
                         std::vector<std::string>& errors);
ContractManifest load_contract_manifest(const std::string& path,
                                        std::vector<std::string>& errors);

/// Run all three rule families over `options.scan_paths`.
Result run(const Options& options, const LayerConfig& layers,
           const Allowlist& allowlist, const ContractManifest& manifest);

/// Convenience wrapper: load configs from `<root>/tools/lint` (or
/// `config_dir` when non-empty) with the default scan/audit set and run.
Result run_repo(const std::string& root, const std::string& config_dir = "");

/// Render the recomputed manifest `function` lines (for --print-manifest).
std::string format_manifest(const std::map<std::string, std::string>& fns);

}  // namespace qp::lint
