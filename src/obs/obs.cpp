#include "obs/obs.hpp"

#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace qp::obs {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(name).first;
    it->second.id_ = static_cast<std::uint32_t>(counter_names_.size());
    counter_names_.push_back(name);
  }
  return it->second;
}

void Registry::append_series(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  series_[name].push_back(value);
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter.value();
  return out;
}

std::vector<std::string> Registry::counter_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counter_names_;
}

std::map<std::string, std::vector<double>> Registry::series_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter.reset();
  for (auto& [name, series] : series_) series.clear();
}

ScopedTimer::ScopedTimer(const char* name)
    : name_(name),
      profiled_(
          profile_detail::g_profile_enabled.load(std::memory_order_relaxed)),
      traced_(TraceRecorder::instance().enabled()) {
  if (profiled_) ProfileCollector::instance().on_span_enter(name_);
  if (profiled_ || traced_) start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (!profiled_ && !traced_) return;
  const std::int64_t nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  if (profiled_) {
    ProfileCollector::instance().on_span_exit(name_, nanos);
  }
  if (traced_) {
    TraceRecorder& recorder = TraceRecorder::instance();
    const double dur_us = static_cast<double>(nanos) / 1e3;
    recorder.record(name_, recorder.now_us() - dur_us, dur_us);
  }
}

}  // namespace qp::obs
