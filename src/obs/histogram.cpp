#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace qp::obs {

using json::append_double;
using json::append_uint;

LogHistogram::LogHistogram()
    : buckets_(static_cast<std::size_t>(kNumBuckets), 0) {}

int LogHistogram::bucket_index(double value) {
  if (!(value >= std::ldexp(1.0, kMinExponent))) return -1;  // incl. NaN/0/neg
  if (value >= std::ldexp(1.0, kMaxExponent)) return kNumBuckets;
  const int index = static_cast<int>(
      std::floor(std::log2(value) * kBucketsPerOctave)) -
      kMinExponent * kBucketsPerOctave;
  // log2 rounding at bucket boundaries can land one bucket off; clamp into
  // the covered range (the neighbouring-bucket error is far below the
  // bucket's own 9.1% relative width).
  return std::clamp(index, 0, kNumBuckets - 1);
}

double LogHistogram::bucket_lower_bound(int bucket) {
  return std::exp2(static_cast<double>(bucket) / kBucketsPerOctave +
                   kMinExponent);
}

double LogHistogram::bucket_upper_bound(int bucket) {
  return bucket_lower_bound(bucket + 1);
}

void LogHistogram::record(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const int index = bucket_index(value);
  if (index < 0) {
    ++underflow_;
  } else if (index >= kNumBuckets) {
    ++overflow_;
  } else {
    ++buckets_[static_cast<std::size_t>(index)];
  }
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
}

double LogHistogram::mean() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum_ / static_cast<double>(count_);
}

double LogHistogram::quantile(double q) const {
  if (!(q >= 0.0) || q > 1.0) {
    throw std::invalid_argument("LogHistogram::quantile: q must be in [0, 1]");
  }
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = underflow_;
  if (rank <= cumulative) return min();
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets_[static_cast<std::size_t>(b)];
    if (rank <= cumulative) {
      return std::clamp(bucket_upper_bound(b), min(), max());
    }
  }
  return max();  // rank falls into the overflow bucket
}

std::string LogHistogram::to_json() const {
  std::string out = "{\"count\": ";
  append_uint(out, count_);
  out += ", \"underflow\": ";
  append_uint(out, underflow_);
  out += ", \"overflow\": ";
  append_uint(out, overflow_);
  out += ", \"min\": ";
  append_double(out, min());
  out += ", \"max\": ";
  append_double(out, max());
  out += ", \"sum\": ";
  append_double(out, sum_);
  // mean()/quantile() are NaN on an empty histogram; JSON has no NaN, so
  // emit null there -- a reader must not mistake "no samples" for a
  // measured zero, and analyze --diff flags null-vs-number as schema drift.
  out += ", \"mean\": ";
  if (count_ > 0) append_double(out, mean()); else out += "null";
  out += ", \"p50\": ";
  if (count_ > 0) append_double(out, quantile(0.50)); else out += "null";
  out += ", \"p90\": ";
  if (count_ > 0) append_double(out, quantile(0.90)); else out += "null";
  out += ", \"p99\": ";
  if (count_ > 0) append_double(out, quantile(0.99)); else out += "null";
  out += ", \"buckets\": [";
  bool first = true;
  for (int b = 0; b < kNumBuckets; ++b) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "[";
    append_uint(out, static_cast<std::uint64_t>(b));
    out += ", ";
    append_uint(out, n);
    out += "]";
  }
  out += "]}";
  return out;
}

}  // namespace qp::obs
