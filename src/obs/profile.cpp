#include "obs/profile.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace qp::obs {

namespace profile_detail {
std::atomic<bool> g_profile_enabled{false};
}  // namespace profile_detail

namespace {

// ------------------------------------------------------------- JSON helpers

using json::append_double;
using json::append_string;
using json::append_uint;

void append_counters(std::string& out, const ProfileNode& node) {
  out += "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : node.counters) {
    if (!first) out += ", ";
    first = false;
    append_string(out, name);
    out += ": ";
    append_uint(out, value);
  }
  out += "}, \"children\": {";
  first = true;
  for (const auto& [name, child] : node.children) {
    if (!first) out += ", ";
    first = false;
    append_string(out, name);
    out += ": ";
    append_counters(out, child);
  }
  out += "}}";
}

void append_wall(std::string& out, const ProfileNode& node) {
  out += "{\"calls\": ";
  append_uint(out, node.calls);
  out += ", \"children\": {";
  bool first = true;
  for (const auto& [name, child] : node.children) {
    if (!first) out += ", ";
    first = false;
    append_string(out, name);
    out += ": ";
    append_wall(out, child);
  }
  out += "}, \"self_ms\": ";
  append_double(out, static_cast<double>(node.self_nanos()) / 1e6);
  out += ", \"total_ms\": ";
  append_double(out, static_cast<double>(node.total_nanos) / 1e6);
  out += "}";
}

void append_folded(std::string& out, const ProfileNode& node,
                   const std::string& prefix) {
  for (const auto& [name, child] : node.children) {
    const std::string path = prefix.empty() ? name : prefix + ";" + name;
    out += path;
    out.push_back(' ');
    append_uint(out, static_cast<std::uint64_t>(
                         child.self_nanos() > 0 ? child.self_nanos() / 1000
                                                : 0));
    out.push_back('\n');
    append_folded(out, child, path);
  }
}

}  // namespace

// ---------------------------------------------------------- per-thread state

namespace {

/// One node of a recording thread's call tree. Children are keyed by the
/// span-name literal itself (fold() merges equal names held by distinct
/// literals); std::map keeps node addresses stable, so live frames point
/// straight at their nodes.
struct CallNode {
  CallNode* parent = nullptr;
  const char* name = nullptr;  ///< string literal; null at the root
  std::uint64_t calls = 0;
  std::int64_t total_nanos = 0;
  std::map<std::uint32_t, std::uint64_t> counters;  ///< counter id -> delta
  std::map<const char*, CallNode> children;

  CallNode& child(const char* child_name) {
    CallNode& node = children[child_name];
    node.parent = this;
    node.name = child_name;
    return node;
  }
};

/// One open frame of the live span stack. Counter adds accrue to the
/// innermost frame's node -- self attribution: a nested span's adds land in
/// the nested node, never the parent's.
struct LiveFrame {
  CallNode* node = nullptr;
  bool ambient = false;  ///< anchors attribution; bumps no calls
};

}  // namespace

/// Per-thread call tree plus the live span stack that walks it. Only the
/// owning thread writes; merges happen from sequential code after parallel
/// regions complete (the pool's job-completion handshake provides the
/// needed happens-before edge), exactly like TraceRecorder::ThreadBuffer.
struct ProfileCollector::ThreadState {
  /// Increments made with no span open on this thread (top-level glue
  /// code) land in the root's own counters.
  CallNode root;
  std::vector<LiveFrame> live;

  CallNode& innermost() { return live.empty() ? root : *live.back().node; }
};

namespace {

std::mutex g_profile_mutex;  // guards state registration, fold, and clear
std::vector<std::unique_ptr<ProfileCollector::ThreadState>>& states() {
  static std::vector<std::unique_ptr<ProfileCollector::ThreadState>> instance;
  return instance;
}

thread_local ProfileCollector::ThreadState* tl_state = nullptr;

ProfileCollector::ThreadState& local_state() {
  if (tl_state == nullptr) {
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    auto state = std::make_unique<ProfileCollector::ThreadState>();
    tl_state = state.get();
    states().push_back(std::move(state));
  }
  return *tl_state;
}

/// Adds one thread's tree into the folded profile, naming counters by id.
void merge(ProfileNode& into, const CallNode& from,
           const std::vector<std::string>& counter_names) {
  into.calls += from.calls;
  into.total_nanos += from.total_nanos;
  for (const auto& [id, delta] : from.counters) {
    into.counters[id < counter_names.size()
                      ? counter_names[id]
                      : "counter#" + std::to_string(id)] += delta;
  }
  for (const auto& [name, child] : from.children) {
    merge(into.children[name], child, counter_names);
  }
}

}  // namespace

namespace profile_detail {

void on_counter_add(std::uint32_t id, std::uint64_t delta) {
  local_state().innermost().counters[id] += delta;
}

}  // namespace profile_detail

// -------------------------------------------------------------- collector

ProfileCollector& ProfileCollector::instance() {
  static ProfileCollector collector;
  return collector;
}

void ProfileCollector::set_enabled(bool enabled) {
  profile_detail::g_profile_enabled.store(enabled,
                                          std::memory_order_relaxed);
}

bool ProfileCollector::enabled() const {
  return profile_detail::g_profile_enabled.load(std::memory_order_relaxed);
}

void ProfileCollector::on_span_enter(const char* name) {
  ThreadState& state = local_state();
  state.live.push_back({&state.innermost().child(name), false});
}

void ProfileCollector::on_span_exit(const char* /*name*/,
                                    std::int64_t dur_nanos) {
  ThreadState& state = local_state();
  if (state.live.empty() || state.live.back().ambient) return;
  CallNode& node = *state.live.back().node;
  node.calls += 1;
  node.total_nanos += dur_nanos;
  state.live.pop_back();
}

std::vector<const char*> ProfileCollector::current_path() const {
  if (tl_state == nullptr || tl_state->live.empty()) return {};
  std::vector<const char*> path;
  for (const CallNode* node = tl_state->live.back().node;
       node->parent != nullptr; node = node->parent) {
    path.push_back(node->name);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void ProfileCollector::ambient_enter(const std::vector<const char*>& path) {
  ThreadState& state = local_state();
  CallNode* node = &state.root;
  for (const char* name : path) node = &node->child(name);
  state.live.push_back({node, true});
}

void ProfileCollector::ambient_exit() {
  ThreadState& state = local_state();
  if (!state.live.empty() && state.live.back().ambient) state.live.pop_back();
}

void ProfileCollector::clear() {
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  for (const auto& state : states()) {
    state->live.clear();
    state->root = CallNode{};
  }
}

ProfileNode ProfileCollector::fold(
    const std::vector<std::string>& counter_names) const {
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  ProfileNode root;
  for (const auto& state : states()) {
    merge(root, state->root, counter_names);
  }

  // The root's total is the cover of its children; it has no duration of
  // its own (self_nanos() == 0 by construction).
  for (const auto& [name, child] : root.children) {
    root.total_nanos += child.total_nanos;
  }
  return root;
}

// ---------------------------------------------------------------- profile

std::int64_t ProfileNode::self_nanos() const {
  std::int64_t children_total = 0;
  for (const auto& [name, child] : children) {
    children_total += child.total_nanos;
  }
  const std::int64_t self = total_nanos - children_total;
  return self > 0 ? self : 0;
}

std::string ProfileNode::counters_json() const {
  std::string out;
  append_counters(out, *this);
  return out;
}

std::string ProfileNode::wall_json() const {
  std::string out;
  append_wall(out, *this);
  return out;
}

std::string ProfileNode::folded() const {
  std::string out;
  append_folded(out, *this, "");
  return out;
}

// --------------------------------------------------------------- ambient

ProfileAmbientScope::ProfileAmbientScope(
    const std::vector<const char*>* path) {
  if (path == nullptr) return;
  ProfileCollector::instance().ambient_enter(*path);
  active_ = true;
}

ProfileAmbientScope::~ProfileAmbientScope() {
  if (active_) ProfileCollector::instance().ambient_exit();
}

}  // namespace qp::obs
