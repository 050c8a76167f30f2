// Minimal JSON value type with a hand-rolled parser and serializer —
// just enough for the scenario request/response format (docs/SERVE.md)
// without pulling in an external dependency.
//
// Design choices, all in service of deterministic round-trips:
//   * Objects preserve *insertion order* (a vector of key/value pairs,
//     not a map), so parse -> dump -> parse is the identity on the
//     serialized text. Duplicate keys are a parse error rather than a
//     silent last-wins.
//   * Numbers are IEEE doubles serialized with std::to_chars shortest
//     round-trip formatting: dump(parse(x)) prints the same bits it
//     read, and equal doubles always print identically — this is what
//     makes `thermosched serve` output byte-comparable across runs and
//     thread counts. Non-finite numbers cannot be represented in JSON
//     and make dump() throw.
//   * dump() is compact (no whitespace); JSONL wants one record per
//     line, so pretty-printing is deliberately absent.
//
// The parser is a recursive-descent scanner over the full JSON grammar
// (RFC 8259): null/true/false, numbers, strings with every escape
// including \uXXXX surrogate pairs, arrays, objects. Errors throw
// ParseError with 1-based line and column, e.g.
//   json: line 3, column 17: expected ':' after object key
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace thermo {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default-constructed value is null.
  JsonValue() = default;

  // Named constructors (plain constructors would make `JsonValue(0)`
  // ambiguous between bool/double/pointer overloads).
  static JsonValue null();
  static JsonValue boolean(bool value);
  static JsonValue number(double value);
  static JsonValue string(std::string value);
  static JsonValue array();
  static JsonValue object();

  Type type() const { return type_; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Human-readable type name ("null", "bool", "number", ...), used in
  /// validation error messages.
  const char* type_name() const;

  // Typed accessors; each throws InvalidArgument naming the actual type
  // when the value is of a different kind.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Element count of an array or object (0 for everything else).
  std::size_t size() const;

  /// Array elements, in order. Throws InvalidArgument for non-arrays.
  const std::vector<JsonValue>& items() const;

  /// Appends to an array. Throws InvalidArgument for non-arrays.
  void append(JsonValue value);

  /// Object members in insertion order. Throws for non-objects.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Pointer to the member's value, nullptr when absent (or when this
  /// is not an object) — the lookup never throws so callers can express
  /// optional fields.
  const JsonValue* find(std::string_view key) const;

  /// Sets a member: replaces the value in place when the key exists,
  /// appends otherwise. Throws InvalidArgument for non-objects.
  void set(std::string key, JsonValue value);

  /// Compact deterministic serialization (see file comment). Throws
  /// InvalidArgument when a non-finite number is reached.
  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Throws ParseError with 1-based line/column on malformed input.
JsonValue parse_json(std::string_view text);

/// Shortest round-trip decimal form of a double (the number format
/// dump() uses), e.g. 15 -> "15", 0.1 -> "0.1", 2e5 -> "2e+05".
/// Throws InvalidArgument on non-finite values.
std::string format_json_number(double value);

}  // namespace thermo
