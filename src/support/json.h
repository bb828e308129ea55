// Minimal streaming JSON writer and recursive-descent parser — the
// machine-readable twin of support/table.h. Emission is fully
// deterministic (fixed indentation, fixed number formatting, no locale
// dependence), which the DSE engine relies on for byte-identical reports
// across thread counts (DESIGN.md §7) and the service wire protocol
// (service/proto.h, DESIGN.md §12) relies on for byte-identical response
// frames. The parser accepts exactly RFC 8259 documents (no comments, no
// trailing commas) and preserves object member order, so
// parse -> write round-trips every document this library emits.
//
// Usage:
//   JsonWriter json(os);
//   json.begin_object();
//   json.key("name"); json.value("FIR");
//   json.key("budgets"); json.begin_array();
//   json.value(std::int64_t{64});
//   json.end_array();
//   json.end_object();   // destructor checks the document is complete
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace srra {

/// Escapes `text` for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters; no surrounding quotes added).
std::string json_escape(std::string_view text);

/// Streams one JSON document, pretty-printed with 2-space indentation.
/// Structural misuse (value without key inside an object, unbalanced
/// end_*) throws srra::Error.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(const std::string& text) { value(std::string_view(text)); }
  void value(std::int64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  /// Non-finite doubles are emitted as null (JSON has no NaN/Inf).
  void value(double number);
  void value(bool flag);
  void null();

  /// Emits `document` — one complete document rendered by a JsonWriter,
  /// with or without its trailing newline — as the next value, re-indented
  /// to the current depth. The bytes equal parsing the document and writing
  /// the parsed value here, because writer output never holds a raw
  /// newline inside a string; the input is trusted, not validated.
  void splice(std::string_view document);

  /// key() + value() in one call.
  template <typename T>
  void field(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

 private:
  enum class Scope { kObject, kArray };
  void begin_value();  // comma/newline/indent bookkeeping before any value
  void open(Scope scope, char bracket);
  void close(Scope scope, char bracket);
  void indent();

  std::ostream& os_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;  // per scope: something emitted yet?
  bool key_pending_ = false;
  bool done_ = false;
};

/// One parsed JSON value. Objects keep their members in document order
/// (lookup is a linear scan — wire-protocol objects are small); numbers
/// remember whether they were written as integers so integer fields
/// round-trip exactly through write().
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null
  static JsonValue make_bool(bool v);
  static JsonValue make_int(std::int64_t v);
  static JsonValue make_double(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array();
  static JsonValue make_object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kInt || kind_ == Kind::kDouble; }

  /// Checked accessors; throw srra::Error on kind mismatch. as_double()
  /// accepts integers too (widening); as_int() requires an integral number.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;     ///< array elements
  const std::vector<Member>& members() const;      ///< object members, document order

  /// Object member by key, or nullptr (null/other kinds: always nullptr).
  const JsonValue* find(std::string_view key) const;

  /// Mutators for building documents programmatically (arrays/objects only).
  void push_back(JsonValue v);
  void set(std::string key, JsonValue v);

  /// Re-emits this value through `json` (object member order preserved), so
  /// parse_json + write reproduces the writer's deterministic formatting.
  void write(JsonWriter& json) const;

  /// Renders this value as a standalone pretty-printed document.
  std::string to_string() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws srra::Error with the byte offset of the
/// problem. Nesting depth is capped (protocol safety) at 64 levels.
JsonValue parse_json(std::string_view text);

}  // namespace srra
