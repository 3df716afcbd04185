// A minimal, zero-dependency JSON reader for trace tooling.
//
// Exists so the exporter's output can be parsed back — by the validity
// tests, by the trace schema check, and by TraceDiff's canonicalizer —
// without adding a third-party dependency.  Supports the full JSON value
// grammar the exporter emits (objects, arrays, strings with escapes,
// numbers, booleans, null); it is a reader for machine-written traces, not
// a general-purpose library.

#ifndef SRC_TRACE_TRACE_JSON_H_
#define SRC_TRACE_TRACE_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace odyssey {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  // Members in key-sorted order (std::map), which canonicalization relies on.
  const std::map<std::string, JsonValue>& object_members() const { return object_; }

  // Member lookup; null pointer when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> v);
  static JsonValue MakeObject(std::map<std::string, JsonValue> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Deepest array/object nesting ParseJson accepts.  The tools write at most
// four levels; the cap keeps a hostile file from exhausting the stack.
inline constexpr int kMaxJsonDepth = 256;

// Parses |text| as one JSON document.  On success returns the value and
// clears |error|; on failure (including nesting past kMaxJsonDepth) returns
// null and describes the first problem (with byte offset) in |error|.
JsonValue ParseJson(const std::string& text, std::string* error);

// Serializes a string with JSON escaping, including the surrounding quotes.
std::string JsonQuote(const std::string& text);

// Canonical number formatting shared by the exporter and the
// canonicalizer: shortest representation that round-trips a double
// ("%.17g", with integral values printed without a fraction).
std::string JsonNumberToString(double value);

}  // namespace odyssey

#endif  // SRC_TRACE_TRACE_JSON_H_
