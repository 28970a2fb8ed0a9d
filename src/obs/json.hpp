#pragma once

/// \file json.hpp
/// JSON for the observability tooling: the emit helpers every obs writer
/// builds its documents with, and a minimal recursive-descent reader.
///
/// The obs layer *writes* JSON by direct string building (run_report.hpp,
/// access_log.hpp, telemetry.hpp, ...) through the append_* helpers below,
/// so every document escapes strings and prints numbers the same way. The
/// reader is the matching half used by `qplace analyze` to load access
/// logs, run reports (`qplace.run_report.v2`), and the committed bench
/// baseline back into memory for cross-checking and diffing. It is
/// deliberately small: strict JSON, doubles for all numbers (every value we
/// emit round-trips through %.17g), objects as sorted maps so iteration
/// order matches the sorted-key emission contract.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qp::obs::json {

/// Appends \p text with quotes and backslashes escaped and control
/// characters (< 0x20) as \u00XX; no surrounding quotes.
void append_escaped(std::string& out, std::string_view text);
/// Appends \p text as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view text);
/// Appends \p value as %.17g, which round-trips every double.
void append_double(std::string& out, double value);
void append_uint(std::string& out, std::uint64_t value);
void append_int(std::string& out, std::int64_t value);
/// Appends `{"key": value, ...}` from already-rendered values, in map
/// (sorted-key) order.
void append_object(std::string& out,
                   const std::map<std::string, std::string>& rendered);

/// One JSON value; a tagged union over the seven JSON shapes (integers are
/// not distinguished from doubles -- all emitters in this repo print
/// numbers that a double represents exactly or that only feed tolerance
/// comparisons).
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Member of an object as a string/number with a fallback when the key is
  /// absent or has a different type.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_number(const std::string& key, double fallback) const;
};

/// Parses one JSON document (leading/trailing whitespace allowed).
/// \throws std::runtime_error on malformed input, with position context.
Value parse(const std::string& text);

}  // namespace qp::obs::json
