#include "cli/options.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "exec/thread_pool.hpp"
#include "graph/io.hpp"
#include "quorum/constructions.hpp"

namespace qp::cli {

std::string ParsedArgs::get(const std::string& name,
                            const std::string& fallback) const {
  read_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::string ParsedArgs::require(const std::string& name) const {
  read_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("missing required flag --" + name);
  }
  return it->second;
}

int ParsedArgs::get_int(const std::string& name, int fallback) const {
  const std::string raw = get(name, "");
  if (raw.empty()) return fallback;
  try {
    std::size_t used = 0;
    const int value = std::stoi(raw, &used);
    if (used != raw.size()) throw std::invalid_argument(raw);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                raw + "'");
  }
}

double ParsedArgs::get_double(const std::string& name, double fallback) const {
  const std::string raw = get(name, "");
  if (raw.empty()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(raw, &used);
    if (used != raw.size()) throw std::invalid_argument(raw);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                raw + "'");
  }
}

std::vector<std::string> ParsedArgs::unread_flags() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (!read_.count(name)) out.push_back(name);
  }
  return out;
}

ParsedArgs parse_args(const std::vector<std::string>& args) {
  if (args.empty() || args.front().rfind("--", 0) == 0) {
    throw std::invalid_argument("expected a command as the first argument");
  }
  const std::string command = args.front();
  std::map<std::string, std::string> flags;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument("expected --flag, got '" + token + "'");
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      flags[body] = args[++i];
    } else {
      flags[body] = "true";  // bare switch
    }
  }
  return ParsedArgs(command, std::move(flags));
}

namespace {

std::vector<int> parse_widths(const std::string& raw) {
  std::vector<int> widths;
  std::stringstream ss(raw);
  std::string part;
  while (std::getline(ss, part, ',')) {
    widths.push_back(std::stoi(part));
  }
  if (widths.empty()) {
    throw std::invalid_argument("--widths expects a comma list, e.g. 2,3,3");
  }
  return widths;
}

}  // namespace

quorum::QuorumSystem make_system(const ParsedArgs& args) {
  const std::string kind = args.get("system", "grid");
  if (kind == "grid") return quorum::grid(args.get_int("k", 3));
  if (kind == "majority") {
    const int n = args.get_int("n", 5);
    return quorum::majority(n, args.get_int("t", n / 2 + 1));
  }
  if (kind == "fpp") return quorum::projective_plane(args.get_int("q", 2));
  if (kind == "tree") return quorum::binary_tree(args.get_int("height", 2));
  if (kind == "wall") {
    return quorum::crumbling_wall(parse_widths(args.get("widths", "2,3")));
  }
  if (kind == "star") return quorum::star(args.get_int("n", 5));
  if (kind == "singleton") return quorum::singleton();
  throw std::invalid_argument("unknown --system '" + kind +
                              "' (grid|majority|fpp|tree|wall|star|singleton)");
}

graph::Graph make_topology(const ParsedArgs& args, std::mt19937_64& rng) {
  if (args.has("graph-file")) {
    return graph::load_edge_list_file(args.require("graph-file"));
  }
  const std::string kind = args.get("topology", "geometric");
  const int n = args.get_int("nodes", 16);
  if (kind == "path") return graph::path_graph(n);
  if (kind == "cycle") return graph::cycle_graph(n);
  if (kind == "star") return graph::star_graph(n);
  if (kind == "complete") return graph::complete_graph(n);
  if (kind == "mesh") return graph::grid_mesh(args.get_int("k", 4));
  if (kind == "broom") return graph::broom_graph(args.get_int("k", 4));
  if (kind == "hypercube") return graph::hypercube(args.get_int("dim", 4));
  if (kind == "torus") return graph::torus(args.get_int("k", 4));
  if (kind == "fattree") {
    return graph::fat_tree(args.get_int("spines", 2), args.get_int("leaves", 4),
                           args.get_int("hosts", 4));
  }
  if (kind == "geometric") {
    return graph::random_geometric(n, args.get_double("radius", 0.45), rng)
        .graph;
  }
  if (kind == "erdos-renyi") {
    return graph::erdos_renyi(n, args.get_double("p", 0.3), rng, 1.0,
                              args.get_double("max-length", 8.0));
  }
  if (kind == "tree") {
    return graph::random_tree(n, rng, 1.0, args.get_double("max-length", 5.0));
  }
  if (kind == "ba") return graph::barabasi_albert(n, args.get_int("m", 2), rng);
  if (kind == "waxman") {
    return graph::waxman(n, args.get_double("a", 0.9),
                         args.get_double("b", 0.4), rng)
        .graph;
  }
  if (kind == "cliques") {
    return graph::ring_of_cliques(args.get_int("cliques", 4),
                                  args.get_int("clique-size", 4), 1.0,
                                  args.get_double("inter", 10.0));
  }
  throw std::invalid_argument("unknown --topology '" + kind + "'");
}

std::optional<std::int64_t> topology_nodes(const ParsedArgs& args) {
  if (args.has("graph-file")) return std::nullopt;
  const std::string kind = args.get("topology", "geometric");
  const auto flag = [&](const std::string& name, int fallback) {
    return static_cast<std::int64_t>(args.get_int(name, fallback));
  };
  if (kind == "mesh" || kind == "broom" || kind == "torus") {
    return flag("k", 4) * flag("k", 4);
  }
  if (kind == "hypercube") {
    // hypercube() itself refuses more than 20 dimensions.
    return std::int64_t{1} << std::clamp(flag("dim", 4), std::int64_t{0},
                                         std::int64_t{20});
  }
  if (kind == "fattree") {
    const std::int64_t leaves = flag("leaves", 4);
    return flag("spines", 2) + leaves + leaves * flag("hosts", 4);
  }
  if (kind == "cliques") return flag("cliques", 4) * flag("clique-size", 4);
  return flag("nodes", 16);
}

double metric_bytes(std::int64_t nodes) {
  const auto n = static_cast<double>(nodes);
  return 8.0 * n * n;
}

double gap_tableau_bytes(std::int64_t nodes, std::int64_t universe) {
  const auto n = static_cast<double>(nodes);
  const auto u = static_cast<double>(universe);
  return 8.0 * (n + u) * (n * u + n + u);
}

namespace {

void require_within_budget(const std::string& what, double bytes) {
  if (bytes <= kAllocationBudgetBytes) return;
  const auto gib = [](double b) {
    std::ostringstream out;
    out << std::fixed << std::setprecision(1)
        << b / (1024.0 * 1024.0 * 1024.0) << " GiB";
    return out.str();
  };
  throw std::length_error(what + " would take " + gib(bytes) +
                          ", over the " + gib(kAllocationBudgetBytes) +
                          " allocation budget; refusing before allocating");
}

}  // namespace

void require_metric_fits(std::int64_t nodes) {
  require_within_budget("the metric of " + std::to_string(nodes) + " nodes",
                        metric_bytes(nodes));
}

void require_instance_fits(std::int64_t nodes, int universe, bool gap_lp) {
  require_metric_fits(nodes);
  if (gap_lp) {
    require_within_budget("the Thm 5.1 GAP LP tableau of " +
                              std::to_string(nodes) +
                              " nodes and " + std::to_string(universe) +
                              " elements",
                          gap_tableau_bytes(nodes, universe));
  }
}

int configure_threads(const ParsedArgs& args) {
  const int requested = args.get_int("threads", 0);
  if (requested >= 1) exec::set_num_threads(requested);
  return exec::num_threads();
}

}  // namespace qp::cli
