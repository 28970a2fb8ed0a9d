#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace qp::obs {

/// Per-thread ring buffer. Only its owning thread writes; merges happen from
/// sequential code after parallel regions complete (the pool's job-completion
/// handshake provides the needed happens-before edge).
struct TraceRecorder::ThreadBuffer {
  explicit ThreadBuffer(int id) : tid(id) { events.resize(kRingCapacity); }

  std::vector<TraceEvent> events;
  std::size_t size = 0;  ///< valid events, <= kRingCapacity
  std::size_t next = 0;  ///< next write slot
  std::uint64_t dropped = 0;
  int tid = 0;
};

namespace {

std::mutex g_trace_mutex;  // guards buffer registration and merge
std::vector<std::unique_ptr<TraceRecorder::ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<TraceRecorder::ThreadBuffer>> instance;
  return instance;
}
std::atomic<bool> g_trace_enabled{false};

thread_local TraceRecorder::ThreadBuffer* tl_buffer = nullptr;

}  // namespace

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_enabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceRecorder::enabled() const {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_trace_mutex);
    auto buffer =
        std::make_unique<ThreadBuffer>(static_cast<int>(buffers().size()));
    tl_buffer = buffer.get();
    buffers().push_back(std::move(buffer));
  }
  return *tl_buffer;
}

void TraceRecorder::record(const char* name, double ts_us, double dur_us) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  TraceEvent& slot = buffer.events[buffer.next];
  slot.name = name;
  slot.ts_us = ts_us;
  slot.dur_us = dur_us;
  slot.args.clear();
  slot.pid = 1;
  buffer.next = (buffer.next + 1) % kRingCapacity;
  if (buffer.size < kRingCapacity) {
    ++buffer.size;
  } else {
    ++buffer.dropped;  // oldest event was overwritten
  }
}

void TraceRecorder::record_sim_span(const char* name, double ts_us,
                                    double dur_us, std::string args) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  TraceEvent& slot = buffer.events[buffer.next];
  slot.name = name;
  slot.ts_us = ts_us;
  slot.dur_us = dur_us;
  slot.args = std::move(args);
  slot.pid = kSimTimePid;
  buffer.next = (buffer.next + 1) % kRingCapacity;
  if (buffer.size < kRingCapacity) {
    ++buffer.size;
  } else {
    ++buffer.dropped;  // oldest event was overwritten
  }
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  std::size_t total = 0;
  for (const auto& buffer : buffers()) total += buffer->size;
  return total;
}

std::uint64_t TraceRecorder::dropped_count() const {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers()) total += buffer->dropped;
  return total;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  for (const auto& buffer : buffers()) {
    buffer->size = 0;
    buffer->next = 0;
    buffer->dropped = 0;
  }
  epoch_ = std::chrono::steady_clock::now();
}

std::string TraceRecorder::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  char number[64];
  for (const auto& buffer : buffers()) {
    const std::size_t oldest =
        (buffer->next + kRingCapacity - buffer->size) % kRingCapacity;
    for (std::size_t i = 0; i < buffer->size; ++i) {
      const TraceEvent& event =
          buffer->events[(oldest + i) % kRingCapacity];
      if (!first) out += ", ";
      first = false;
      out += "{\"name\": \"";
      json::append_escaped(out, event.name);
      out += "\", \"cat\": \"qplace\", \"ph\": \"X\", \"ts\": ";
      std::snprintf(number, sizeof(number), "%.3f", event.ts_us);
      out += number;
      out += ", \"dur\": ";
      std::snprintf(number, sizeof(number), "%.3f", event.dur_us);
      out += number;
      out += ", \"pid\": ";
      std::snprintf(number, sizeof(number), "%d", event.pid);
      out += number;
      out += ", \"tid\": ";
      std::snprintf(number, sizeof(number), "%d", buffer->tid);
      out += number;
      if (!event.args.empty()) {
        out += ", \"args\": ";
        out += event.args;  // pre-rendered JSON object
      }
      out += "}";
    }
  }
  out += "], \"displayTimeUnit\": \"ms\"}";
  return out;
}

}  // namespace qp::obs
