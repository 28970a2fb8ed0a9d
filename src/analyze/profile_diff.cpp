#include "analyze/profile_diff.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace qp::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Flattened deterministic tree: path -> the node's counter object (nullptr
/// when it has none). Paths join span names with "/"; the root is "".
using CounterTree = std::map<std::string, const json::Value*>;

void flatten_deterministic(const json::Value& node, const std::string& path,
                           CounterTree& out) {
  const json::Value* counters = node.find("counters");
  out[path] = counters != nullptr && counters->is_object() ? counters
                                                           : nullptr;
  if (const json::Value* children = node.find("children");
      children != nullptr && children->is_object()) {
    for (const auto& [name, child] : children->object) {
      flatten_deterministic(child, path.empty() ? name : path + "/" + name,
                            out);
    }
  }
}

struct WallNode {
  double calls = 0.0;
  double total_ms = 0.0;
};

void flatten_nondeterministic(const json::Value& node, const std::string& path,
                              std::map<std::string, WallNode>& out) {
  WallNode& wall = out[path];
  wall.calls = node.get_number("calls", 0.0);
  wall.total_ms = node.get_number("total_ms", 0.0);
  if (const json::Value* children = node.find("children");
      children != nullptr && children->is_object()) {
    for (const auto& [name, child] : children->object) {
      flatten_nondeterministic(child, path.empty() ? name : path + "/" + name,
                               out);
    }
  }
}

const json::Value* profile_root(const json::Value& doc, const char* half) {
  const json::Value* section = doc.find(half);
  return section != nullptr ? section->find("root") : nullptr;
}

}  // namespace

double ProfileDiff::max_deterministic_drift() const {
  if (!structure.empty()) return kInf;
  double max = 0.0;
  for (const auto& counter : counters) {
    max = std::max(max, counter.rel_drift());
  }
  return max;
}

ProfileDiff diff_profiles(const json::Value& base, const json::Value& cand) {
  ProfileDiff diff;

  const std::string schema_base = base.get_string("schema", "");
  const std::string schema_cand = cand.get_string("schema", "");
  if (schema_base != "qplace.profile.v1" ||
      schema_cand != "qplace.profile.v1") {
    diff.error = "not a qplace.profile.v1 document (schema \"" + schema_base +
                 "\" vs \"" + schema_cand + "\")";
    return diff;
  }

  diff.error = digest_mismatch(base, cand);
  if (!diff.error.empty()) return diff;

  const json::Value* det_base = profile_root(base, "deterministic");
  const json::Value* det_cand = profile_root(cand, "deterministic");
  if (det_base == nullptr || det_cand == nullptr) {
    diff.error = "missing deterministic.root subtree";
    return diff;
  }

  CounterTree tree_base, tree_cand;
  flatten_deterministic(*det_base, "", tree_base);
  flatten_deterministic(*det_cand, "", tree_cand);

  std::set<std::string> paths;
  for (const auto& [path, counters] : tree_base) paths.insert(path);
  for (const auto& [path, counters] : tree_cand) paths.insert(path);

  for (const std::string& path : paths) {
    const auto it_base = tree_base.find(path);
    const auto it_cand = tree_cand.find(path);
    if (it_base == tree_base.end() || it_cand == tree_cand.end()) {
      ProfileStructureDiff structural;
      structural.path = path;
      structural.in_base = it_base != tree_base.end();
      structural.in_cand = it_cand != tree_cand.end();
      diff.structure.push_back(std::move(structural));
      continue;
    }
    diff.error = compare_counters(it_base->second, it_cand->second, path,
                                  diff.counters);
    if (!diff.error.empty()) return ProfileDiff{diff.error, {}, {}, {}};
  }

  const json::Value* wall_base = profile_root(base, "nondeterministic");
  const json::Value* wall_cand = profile_root(cand, "nondeterministic");
  if (wall_base != nullptr && wall_cand != nullptr) {
    std::map<std::string, WallNode> walls_base, walls_cand;
    flatten_nondeterministic(*wall_base, "", walls_base);
    flatten_nondeterministic(*wall_cand, "", walls_cand);
    for (const auto& [path, wall] : walls_base) {
      const auto it = walls_cand.find(path);
      if (it == walls_cand.end()) continue;  // structural drift covers it
      ProfileWallDiff wall_diff;
      wall_diff.path = path;
      wall_diff.calls_base = wall.calls;
      wall_diff.calls_cand = it->second.calls;
      wall_diff.total_ms_base = wall.total_ms;
      wall_diff.total_ms_cand = it->second.total_ms;
      diff.walls.push_back(std::move(wall_diff));
    }
  }

  return diff;
}

}  // namespace qp::obs
