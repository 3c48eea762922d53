// Minimal JSON support for the trace/report exporters and their tests.
//
// JsonWriter streams syntactically valid JSON with correct string escaping
// and comma placement — no intermediate DOM, so exporting a large trace is
// one pass. JsonValue/parse_json is the matching reader used by the
// round-trip tests and the trace-validation ctest; it accepts the full
// JSON grammar the writers can produce (objects, arrays, strings, finite
// numbers, booleans, null).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace tahoe::trace {

/// Escape `s` into a JSON string literal (including the quotes).
std::string json_escape(const std::string& s);

/// Forward-only JSON emitter. Callers nest begin_object/begin_array and
/// close with end(); key() must precede every member value inside an
/// object. Misuse (e.g. a bare value where a key is required) is a
/// contract violation, checked in debug builds by the writers' own tests
/// rather than runtime asserts here.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(const std::string& k);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key + value in one call.
  template <typename T>
  JsonWriter& kv(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  void comma();

  std::ostream& os_;
  /// One entry per open container: whether a value was already written
  /// (controls comma emission).
  std::vector<bool> has_item_;
  bool after_key_ = false;
};

/// Parsed JSON DOM for tests/validation.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const noexcept { return type == Type::Object; }
  bool is_array() const noexcept { return type == Type::Array; }
  bool is_string() const noexcept { return type == Type::String; }
  bool is_number() const noexcept { return type == Type::Number; }

  /// Object member access; throws std::out_of_range when absent.
  const JsonValue& at(const std::string& k) const { return object.at(k); }
  bool has(const std::string& k) const {
    return type == Type::Object && object.count(k) != 0;
  }
};

/// Parse a complete JSON document. Throws std::runtime_error (with byte
/// offset) on malformed input, trailing garbage, or arrays/objects nested
/// more than 256 levels deep.
JsonValue parse_json(const std::string& text);

}  // namespace tahoe::trace
