#include "obs/run_report.hpp"

#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace qp::obs {

namespace {

using json::append_double;
using json::append_object;
using json::append_string;
using json::append_uint;

}  // namespace

void RunReport::set_context(const std::string& key, const std::string& value) {
  context_[key] = value;
}

void RunReport::add_histogram(const std::string& name,
                              const LogHistogram& histogram) {
  histograms_[name] = histogram.to_json();
}

void RunReport::add_nondeterministic_json(const std::string& key,
                                          const std::string& json) {
  extra_nondeterministic_[key] = json;
}

std::string RunReport::to_json() const {
  const Registry& registry = Registry::instance();

  std::string out = "{\"schema\": \"qplace.run_report.v2\", \"command\": ";
  append_string(out, command_);

  out += ", \"context\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [key, value] : context_) {
      std::string cell;
      append_string(cell, value);
      rendered[key] = cell;
    }
    append_object(out, rendered);
  }

  out += ", \"deterministic\": {\"counters\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [name, value] : registry.counter_values()) {
      std::string cell;
      append_uint(cell, value);
      rendered[name] = cell;
    }
    append_object(out, rendered);
  }
  out += ", \"series\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [name, values] : registry.series_values()) {
      std::string cell = "[";
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) cell += ", ";
        append_double(cell, values[i]);
      }
      cell += "]";
      rendered[name] = cell;
    }
    append_object(out, rendered);
  }
  out += ", \"histograms\": ";
  append_object(out, histograms_);
  const ProfileNode profile =
      ProfileCollector::instance().fold(registry.counter_names());
  out += ", \"profile\": ";
  out += profile.counters_json();
  out += "}";

  out += ", \"nondeterministic\": {\"profile\": ";
  out += profile.wall_json();
#if defined(__unix__) || defined(__APPLE__)
  // Process-level resource footprint: wall-class data (the RSS peak depends
  // on scheduling, allocator behavior, and thread count), so it lives
  // outside the deterministic subtree. Sampled once, at the first
  // serialization, so rendering a report twice yields equal bytes even
  // though serialization itself faults pages. ru_maxrss is kilobytes on
  // Linux, bytes on macOS -- normalized to kB here.
  if (resources_json_.empty()) {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      std::uint64_t max_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
#if defined(__APPLE__)
      max_rss_kb /= 1024;
#endif
      resources_json_ = "{\"max_rss_kb\": ";
      append_uint(resources_json_, max_rss_kb);
      resources_json_ += ", \"page_faults_major\": ";
      append_uint(resources_json_,
                  static_cast<std::uint64_t>(usage.ru_majflt));
      resources_json_ += ", \"page_faults_minor\": ";
      append_uint(resources_json_,
                  static_cast<std::uint64_t>(usage.ru_minflt));
      resources_json_ += "}";
    }
  }
#endif
  if (!resources_json_.empty()) {
    out += ", \"resources\": ";
    out += resources_json_;
  }
  for (const auto& [key, json] : extra_nondeterministic_) {
    out += ", ";
    append_string(out, key);
    out += ": ";
    out += json;
  }
  out += "}}";
  return out;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  if (!stream) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  stream << contents;
  if (!stream) {
    throw std::runtime_error("failed writing '" + path + "'");
  }
}

}  // namespace qp::obs
