// Minimal dependency-free JSON support for the profiling layer.
//
// JsonWriter is a streaming writer with explicit begin/end calls and
// automatic comma placement -- enough to emit Chrome trace files and bench
// reports without pulling in a JSON library.  parse_json is the matching
// minimal recursive-descent reader used by tests and tools to round-trip
// and schema-check what the writer (or any other producer) emitted.
//
// Deliberately small: numbers are f64, object keys keep insertion order,
// and \uXXXX escapes outside ASCII decode to '?'.  That covers everything
// this repository writes.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace ms::sim {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(&os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or container begin.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(f64 v);
  JsonWriter& value(u64 v);
  JsonWriter& value(u32 v) { return value(static_cast<u64>(v)); }
  JsonWriter& value(i64 v);
  JsonWriter& value(bool v);

  /// Shorthand for key(k) followed by value(v).
  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// True once every opened container has been closed.
  bool complete() const { return stack_.empty() && wrote_top_level_; }

 private:
  void begin_value();
  void write_escaped(std::string_view s);

  std::ostream* os_;
  std::vector<char> stack_;     // 'O' or 'A' per open container
  std::vector<bool> has_item_;  // parallel to stack_
  bool after_key_ = false;
  bool wrote_top_level_ = false;
};

/// A parsed JSON document node.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  f64 number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// find() that throws std::runtime_error when the member is missing.
  const JsonValue& at(std::string_view key) const;
  /// The member as a count, id or version read from untrusted input: a
  /// whole number in [0, 2^64).  Throws std::runtime_error when it is
  /// missing, not a number, fractional, negative or too large.
  u64 at_u64(std::string_view key) const;
};

/// Parse a complete JSON document (throws std::runtime_error on malformed
/// input, trailing garbage, or nesting deeper than 64 levels).
JsonValue parse_json(std::string_view text);

}  // namespace ms::sim
