#include "obs/profile.hpp"

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

struct ProfileEvent {
  enum class Kind : std::uint8_t {
    kEnter,         // open a span named `name` under the current frame
    kExit,          // close it: duration + self counter deltas
    kAmbientEnter,  // jump attribution to the absolute path `path`
    kAmbientExit,   // restore; carries the frame's self counter deltas
  };

  Kind kind = Kind::kEnter;
  const char* name = nullptr;  ///< string literal; never owned
  std::int64_t dur_nanos = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> deltas;
  std::vector<const char*> path;  ///< kAmbientEnter only
};

/// One open frame of the live (not-yet-exited) span stack. Counter adds
/// accrue to the innermost frame's delta map -- self attribution: a nested
/// span's adds land in the nested frame, never the parent's.
struct LiveFrame {
  const char* name = nullptr;
  std::vector<const char*> ambient_path;
  bool ambient = false;
  std::map<std::uint32_t, std::uint64_t> deltas;
};

std::vector<std::pair<std::uint32_t, std::uint64_t>> flatten(
    std::map<std::uint32_t, std::uint64_t>&& deltas) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  out.reserve(deltas.size());
  for (const auto& [id, delta] : deltas) out.emplace_back(id, delta);
  return out;
}

// ------------------------------------------------------------- JSON helpers

using json::append_double;
using json::append_string;
using json::append_uint;

/// Deterministic subtree of one node: {"counters": {...}, "children": {...}}.
void append_deterministic(std::string& out, const ProfileNode& node) {
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
    append_deterministic(out, child);
  }
  out += "}}";
}

/// Wall-class subtree of one node:
/// {"calls": N, "children": {...}, "self_ms": S, "total_ms": T}.
void append_nondeterministic(std::string& out, const ProfileNode& node) {
  out += "{\"calls\": ";
  append_uint(out, node.calls);
  out += ", \"children\": {";
  bool first = true;
  for (const auto& [name, child] : node.children) {
    if (!first) out += ", ";
    first = false;
    append_string(out, name);
    out += ": ";
    append_nondeterministic(out, child);
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

/// Per-thread event ring plus the live attribution stack. Only the owning
/// thread writes; merges happen from sequential code after parallel regions
/// complete (the pool's job-completion handshake provides the needed
/// happens-before edge), exactly like TraceRecorder::ThreadBuffer.
struct ProfileCollector::ThreadState {
  explicit ThreadState(int id) : tid(id) { ring.resize(kRingCapacity); }

  std::vector<ProfileEvent> ring;
  std::size_t size = 0;  ///< valid events, <= kRingCapacity
  std::size_t next = 0;  ///< next write slot
  std::uint64_t dropped = 0;

  std::vector<LiveFrame> live;
  /// Increments made with no span open on this thread (top-level glue
  /// code); folded into the root node's own counters.
  std::map<std::uint32_t, std::uint64_t> root_deltas;
  /// Attribution salvaged from evicted exit events -- folded into the
  /// `<truncated>` node so ring overflow loses placement, not totals.
  std::map<std::uint32_t, std::uint64_t> truncated_deltas;
  std::int64_t truncated_nanos = 0;
  std::uint64_t truncated_calls = 0;

  int tid = 0;
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
    auto state = std::make_unique<ProfileCollector::ThreadState>(
        static_cast<int>(states().size()));
    tl_state = state.get();
    states().push_back(std::move(state));
  }
  return *tl_state;
}

/// Appends one event, overwriting the oldest when the ring is full. Evicted
/// exits carry attributed deltas/durations; those are salvaged into the
/// thread's `<truncated>` accumulator (an event's exit is always newer than
/// its enter, so by the time an exit is evicted its enter is already gone).
void push_event(ProfileCollector::ThreadState& state, ProfileEvent&& event) {
  ProfileEvent& slot = state.ring[state.next];
  if (state.size == ProfileCollector::kRingCapacity) {
    ++state.dropped;
    if (slot.kind == ProfileEvent::Kind::kExit) {
      ++state.truncated_calls;
      state.truncated_nanos += slot.dur_nanos;
      for (const auto& [id, delta] : slot.deltas) {
        state.truncated_deltas[id] += delta;
      }
    } else if (slot.kind == ProfileEvent::Kind::kAmbientExit) {
      for (const auto& [id, delta] : slot.deltas) {
        state.truncated_deltas[id] += delta;
      }
    }
  }
  slot = std::move(event);
  state.next = (state.next + 1) % ProfileCollector::kRingCapacity;
  if (state.size < ProfileCollector::kRingCapacity) ++state.size;
}

}  // namespace

namespace profile_detail {

void on_counter_add(std::uint32_t id, std::uint64_t delta) {
  ProfileCollector::ThreadState& state = local_state();
  if (!state.live.empty()) {
    state.live.back().deltas[id] += delta;
  } else {
    state.root_deltas[id] += delta;
  }
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
  ProfileEvent event;
  event.kind = ProfileEvent::Kind::kEnter;
  event.name = name;
  push_event(state, std::move(event));
  LiveFrame frame;
  frame.name = name;
  state.live.push_back(std::move(frame));
}

void ProfileCollector::on_span_exit(const char* name,
                                    std::int64_t dur_nanos) {
  ThreadState& state = local_state();
  ProfileEvent event;
  event.kind = ProfileEvent::Kind::kExit;
  event.name = name;
  event.dur_nanos = dur_nanos;
  if (!state.live.empty() && !state.live.back().ambient) {
    event.deltas = flatten(std::move(state.live.back().deltas));
    state.live.pop_back();
  }
  push_event(state, std::move(event));
}

std::vector<const char*> ProfileCollector::current_path() const {
  if (tl_state == nullptr) return {};
  const ThreadState& state = *tl_state;
  std::vector<const char*> path;
  std::size_t start = 0;
  for (std::size_t i = state.live.size(); i > 0; --i) {
    if (state.live[i - 1].ambient) {
      path = state.live[i - 1].ambient_path;
      start = i;
      break;
    }
  }
  for (std::size_t i = start; i < state.live.size(); ++i) {
    path.push_back(state.live[i].name);
  }
  return path;
}

void ProfileCollector::ambient_enter(const std::vector<const char*>& path) {
  ThreadState& state = local_state();
  ProfileEvent event;
  event.kind = ProfileEvent::Kind::kAmbientEnter;
  event.path = path;
  push_event(state, std::move(event));
  LiveFrame frame;
  frame.ambient = true;
  frame.ambient_path = path;
  state.live.push_back(std::move(frame));
}

void ProfileCollector::ambient_exit() {
  ThreadState& state = local_state();
  ProfileEvent event;
  event.kind = ProfileEvent::Kind::kAmbientExit;
  if (!state.live.empty() && state.live.back().ambient) {
    event.deltas = flatten(std::move(state.live.back().deltas));
    state.live.pop_back();
  }
  push_event(state, std::move(event));
}

std::uint64_t ProfileCollector::dropped_count() const {
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  std::uint64_t total = 0;
  for (const auto& state : states()) total += state->dropped;
  return total;
}

void ProfileCollector::clear() {
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  for (const auto& state : states()) {
    state->size = 0;
    state->next = 0;
    state->dropped = 0;
    state->live.clear();
    state->root_deltas.clear();
    state->truncated_deltas.clear();
    state->truncated_nanos = 0;
    state->truncated_calls = 0;
  }
}

Profile ProfileCollector::fold(
    const std::vector<std::string>& counter_names) const {
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  Profile profile;

  const auto counter_name = [&counter_names](std::uint32_t id) {
    return id < counter_names.size() ? counter_names[id]
                                     : "counter#" + std::to_string(id);
  };

  for (const auto& state_ptr : states()) {
    const ThreadState& state = *state_ptr;
    const bool has_data = state.size > 0 || !state.root_deltas.empty() ||
                          state.dropped > 0;
    if (!has_data) continue;
    ++profile.threads;
    profile.dropped += state.dropped;

    const std::size_t oldest =
        (state.next + kRingCapacity - state.size) % kRingCapacity;
    const auto event_at = [&state, oldest](std::size_t i) -> const
        ProfileEvent& { return state.ring[(oldest + i) % kRingCapacity]; };

    // Pre-scan: exits beyond the enters still in the ring belong to spans
    // whose enter was evicted. They must not pop past the root -- replay
    // starts from that many synthetic frames, all parked on `<truncated>`,
    // so orphaned children re-parent there explicitly.
    long depth = 0;
    long min_depth = 0;
    for (std::size_t i = 0; i < state.size; ++i) {
      const ProfileEvent::Kind kind = event_at(i).kind;
      depth += (kind == ProfileEvent::Kind::kEnter ||
                kind == ProfileEvent::Kind::kAmbientEnter)
                   ? 1
                   : -1;
      if (depth < min_depth) min_depth = depth;
    }
    const std::size_t unmatched =
        min_depth < 0 ? static_cast<std::size_t>(-min_depth) : 0;

    std::vector<ProfileNode*> stack;
    stack.push_back(&profile.root);
    if (unmatched > 0) {
      ProfileNode& truncated = profile.root.children[kTruncatedName];
      for (std::size_t i = 0; i < unmatched; ++i) {
        stack.push_back(&truncated);
      }
    }

    for (std::size_t i = 0; i < state.size; ++i) {
      const ProfileEvent& event = event_at(i);
      switch (event.kind) {
        case ProfileEvent::Kind::kEnter:
          stack.push_back(&stack.back()->children[event.name]);
          break;
        case ProfileEvent::Kind::kAmbientEnter: {
          ProfileNode* node = &profile.root;
          for (const char* name : event.path) node = &node->children[name];
          stack.push_back(node);
          break;
        }
        case ProfileEvent::Kind::kExit: {
          ProfileNode& node = *stack.back();
          if (stack.size() > 1) stack.pop_back();
          node.calls += 1;
          node.total_nanos += event.dur_nanos;
          for (const auto& [id, delta] : event.deltas) {
            node.counters[counter_name(id)] += delta;
          }
          break;
        }
        case ProfileEvent::Kind::kAmbientExit: {
          ProfileNode& node = *stack.back();
          if (stack.size() > 1) stack.pop_back();
          for (const auto& [id, delta] : event.deltas) {
            node.counters[counter_name(id)] += delta;
          }
          break;
        }
      }
    }

    for (const auto& [id, delta] : state.root_deltas) {
      profile.root.counters[counter_name(id)] += delta;
    }
    if (state.truncated_calls > 0 || state.truncated_nanos > 0 ||
        !state.truncated_deltas.empty()) {
      ProfileNode& truncated = profile.root.children[kTruncatedName];
      truncated.calls += state.truncated_calls;
      truncated.total_nanos += state.truncated_nanos;
      for (const auto& [id, delta] : state.truncated_deltas) {
        truncated.counters[counter_name(id)] += delta;
      }
    }
  }

  // The root's total is the cover of its children; it has no duration of
  // its own (self_nanos() == 0 by construction).
  std::int64_t total = 0;
  for (const auto& [name, child] : profile.root.children) {
    total += child.total_nanos;
  }
  profile.root.total_nanos = total;
  return profile;
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

std::string Profile::to_json(
    const std::string& command,
    const std::map<std::string, std::string>& context) const {
  std::string out = "{\"schema\": \"qplace.profile.v1\", \"command\": ";
  append_string(out, command);
  out += ", \"context\": {";
  bool first = true;
  for (const auto& [key, value] : context) {
    if (!first) out += ", ";
    first = false;
    append_string(out, key);
    out += ": ";
    append_string(out, value);
  }
  out += "}, \"deterministic\": {\"root\": ";
  append_deterministic(out, root);
  out += "}, \"nondeterministic\": {\"dropped\": ";
  append_uint(out, dropped);
  out += ", \"root\": ";
  append_nondeterministic(out, root);
  out += ", \"threads\": ";
  append_uint(out, threads);
  out += "}}";
  return out;
}

std::string Profile::to_folded() const {
  std::string out;
  append_folded(out, root, "");
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
