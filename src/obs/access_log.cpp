#include "obs/access_log.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace qp::obs {

namespace {

using json::append_double;
using json::append_int;
using json::append_string;

/// splitmix64 finalizer: a bijective avalanche mix, so consecutive access
/// ids map to effectively independent uniform draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

}  // namespace

std::string access_outcome_name(AccessOutcome outcome) {
  switch (outcome) {
    case AccessOutcome::kOk:
      return "ok";
    case AccessOutcome::kTimeout:
      return "timeout";
    case AccessOutcome::kUnavailable:
      return "unavailable";
  }
  throw std::runtime_error("access_outcome_name: unknown outcome");
}

AccessOutcome access_outcome_from_name(const std::string& name) {
  if (name == "ok") return AccessOutcome::kOk;
  if (name == "timeout") return AccessOutcome::kTimeout;
  if (name == "unavailable") return AccessOutcome::kUnavailable;
  throw std::runtime_error("access log has unknown outcome '" + name + "'");
}

std::string render_access_record(const AccessRecord& record) {
  std::string out = "{\"id\": ";
  append_int(out, record.id);
  out += ", \"client\": ";
  append_int(out, record.client);
  out += ", \"quorum\": ";
  append_int(out, record.quorum);
  out += ", \"relay\": ";
  append_int(out, record.relay);
  out += ", \"attempts\": ";
  append_int(out, record.attempts);
  out += ", \"outcome\": ";
  append_string(out, access_outcome_name(record.outcome));
  out += ", \"start\": ";
  append_double(out, record.start);
  out += ", \"finish\": ";
  append_double(out, record.finish);
  out += ", \"probes\": [";
  for (std::size_t i = 0; i < record.probes.size(); ++i) {
    if (i > 0) out += ", ";
    const AccessProbe& probe = record.probes[i];
    out += "[";
    append_int(out, probe.element);
    out += ", ";
    append_int(out, probe.node);
    out += ", ";
    append_double(out, probe.net_delay);
    out += ", ";
    append_double(out, probe.queue_wait);
    out += "]";
  }
  out += "]}";
  return out;
}

bool access_log_sampled(const AccessLogConfig& config, std::int64_t id) {
  if (config.sample_rate >= 1.0) return true;
  if (config.sample_rate <= 0.0) return false;
  const std::uint64_t hash =
      mix64(config.sample_seed ^
            (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL));
  // Top 53 bits -> uniform double in [0, 1).
  const double uniform =
      static_cast<double>(hash >> 11U) * 0x1.0p-53;
  return uniform < config.sample_rate;
}

AccessLogWriter::AccessLogWriter(
    std::ostream& out, AccessLogConfig config,
    const std::map<std::string, std::string>& context)
    : out_(out), config_(config) {
  if (!(config_.sample_rate >= 0.0) || config_.sample_rate > 1.0) {
    throw std::invalid_argument(
        "AccessLogWriter: sample_rate must lie in [0, 1]");
  }
  if (config_.head_limit < 0) {
    throw std::invalid_argument(
        "AccessLogWriter: head_limit must be non-negative");
  }
  context_ = context;
}

AccessLogWriter::~AccessLogWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() surfaces I/O errors.
  }
}

void AccessLogWriter::record(const AccessRecord& record) {
  if (closed_) {
    throw std::logic_error("AccessLogWriter: record() after close()");
  }
  if (!sampled(record.id)) return;
  ++recorded_;
  const auto by_id = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  const auto limit = static_cast<std::size_t>(config_.head_limit);
  if (limit == 0) {
    buffered_.emplace_back(record.id, render_access_record(record));
    return;
  }
  // Head-limited: buffered_ is a max-heap by id holding the `limit`
  // smallest ids seen so far, so only those are ever rendered and held.
  if (buffered_.size() == limit) {
    if (record.id >= buffered_.front().first) return;
    std::pop_heap(buffered_.begin(), buffered_.end(), by_id);
    buffered_.pop_back();
  }
  buffered_.emplace_back(record.id, render_access_record(record));
  std::push_heap(buffered_.begin(), buffered_.end(), by_id);
}

void AccessLogWriter::close() {
  if (closed_) return;
  closed_ = true;
  std::string header = "{\"schema\": \"qplace.access_log.v2\", \"context\": {";
  bool first = true;
  for (const auto& [key, value] : context_) {
    if (!first) header += ", ";
    first = false;
    append_string(header, key);
    header += ": ";
    append_string(header, value);
  }
  header += "}}";
  out_ << header << "\n";

  std::sort(buffered_.begin(), buffered_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t limit = buffered_.size();
  if (config_.head_limit > 0) {
    limit = std::min(limit, static_cast<std::size_t>(config_.head_limit));
  }
  for (std::size_t i = 0; i < limit; ++i) {
    out_ << buffered_[i].second << "\n";
  }
  out_.flush();
  if (!out_) {
    throw std::runtime_error("AccessLogWriter: write failed");
  }
}

std::string ParsedAccessLog::context_or(const std::string& key,
                                        const std::string& fallback) const {
  const auto it = context.find(key);
  return it == context.end() ? fallback : it->second;
}

ParsedAccessLog parse_access_log(std::istream& in) {
  ParsedAccessLog log;
  std::string line;
  bool saw_header = false;
  std::int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const json::Value value = json::parse(line);
    if (!value.is_object()) {
      throw std::runtime_error("access log line " +
                               std::to_string(line_number) +
                               " is not a JSON object");
    }
    if (!saw_header) {
      const std::string schema = value.get_string("schema", "");
      if (schema != "qplace.access_log.v2" &&
          schema != "qplace.access_log.v1") {
        throw std::runtime_error(
            "access log header has schema '" + schema +
            "', expected 'qplace.access_log.v2' (or legacy v1)");
      }
      if (const json::Value* context = value.find("context")) {
        for (const auto& [key, member] : context->object) {
          if (member.type == json::Value::Type::kString) {
            log.context[key] = member.string;
          }
        }
      }
      saw_header = true;
      continue;
    }
    AccessRecord record;
    const json::Value* id = value.find("id");
    const json::Value* probes = value.find("probes");
    if (id == nullptr || probes == nullptr || !probes->is_array()) {
      throw std::runtime_error("access log line " +
                               std::to_string(line_number) +
                               " misses required fields");
    }
    record.id = static_cast<std::int64_t>(id->number);
    record.client = static_cast<int>(value.get_number("client", 0));
    record.quorum = static_cast<int>(value.get_number("quorum", 0));
    record.relay = static_cast<int>(value.get_number("relay", -1));
    // v2 fields; absent in legacy v1 records, where every logged access
    // was a single-attempt success.
    record.attempts = static_cast<int>(value.get_number("attempts", 1));
    record.outcome =
        access_outcome_from_name(value.get_string("outcome", "ok"));
    if (record.attempts < 1) {
      throw std::runtime_error("access log line " +
                               std::to_string(line_number) +
                               " has attempts < 1");
    }
    record.start = value.get_number("start", 0.0);
    record.finish = value.get_number("finish", 0.0);
    record.probes.reserve(probes->array.size());
    for (const json::Value& entry : probes->array) {
      if (!entry.is_array() || entry.array.size() != 4) {
        throw std::runtime_error("access log line " +
                                 std::to_string(line_number) +
                                 " has a malformed probe tuple");
      }
      AccessProbe probe;
      probe.element = static_cast<int>(entry.array[0].number);
      probe.node = static_cast<int>(entry.array[1].number);
      probe.net_delay = entry.array[2].number;
      probe.queue_wait = entry.array[3].number;
      record.probes.push_back(probe);
    }
    log.records.push_back(std::move(record));
  }
  if (!saw_header) {
    throw std::runtime_error("access log is empty (no header line)");
  }
  return log;
}

}  // namespace qp::obs
