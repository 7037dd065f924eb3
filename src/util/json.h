// JSON for the whole repo, both directions.
//
// JsonWriter streams documents: the BENCH_*.json artifacts, spinelessd's
// responses and journals, the sweep journal. Begin/end objects and arrays,
// write keyed or plain values; commas and string escaping are handled here
// so call sites stay declarative. Doubles print as %.9g.
//
// parse_json reads one document into a small DOM (JsonValue) with
// deterministic iteration (object members keep insertion order in a vector
// — no hash maps anywhere near request handling) and position-annotated
// errors, so a malformed request comes back to the client as an `error`
// response instead of killing the daemon. Scope: objects, arrays, strings
// with the standard escapes (\uXXXX folded to UTF-8), numbers, bools,
// null. No comments, no trailing commas, no NaN/Infinity (they are not
// valid JSON and JsonWriter never emits them).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spineless {

class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // Keyed forms, valid inside an object.
  void key(const std::string& k);
  void kv(const std::string& k, const std::string& v);
  void kv(const std::string& k, const char* v);
  void kv(const std::string& k, double v);
  void kv(const std::string& k, std::int64_t v);
  void kv(const std::string& k, std::uint64_t v);
  void kv(const std::string& k, int v) { kv(k, static_cast<std::int64_t>(v)); }
  void kv(const std::string& k, bool v);

  // Plain values, valid inside an array (or after key()).
  void value(const std::string& v);
  void value(double v);
  void value(std::int64_t v);
  // Splices `doc`, a writer holding one complete value, in value position.
  void value(const JsonWriter& doc);

  const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  void append_string(const std::string& s);
  void append_double(double v);

  std::string out_;
  bool need_comma_ = false;
};

// Atomically writes `writer`'s document to `path` (+ trailing newline) via
// util::atomic_write_file, so readers never observe a truncated document.
// Returns false (target untouched) if the file cannot be written.
bool write_json_file(const std::string& path, const JsonWriter& writer);

// The double that parse_json reads back from JsonWriter's text for `v`:
// `v` rounded to the 9 significant digits it prints with. Non-finite values
// (written as null) come back unchanged.
double json_rounded(double v);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  // Typed accessors throw spineless::Error on a kind mismatch, so readers
  // take fields without pre-checking every one. as_int/as_uint read an
  // integer literal exactly from its text (a double holds only 53 bits);
  // other integral numbers such as 1e3 or 1.0 go through the double. Both
  // throw when the number is not integral or does not fit the type.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  // Object member lookup (first match, linear — objects here are small).
  // Returns nullptr when absent or when this value is not an object.
  const JsonValue* find(const std::string& key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;  // a string's text, or a number's literal
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses exactly one JSON value; trailing non-whitespace is an error.
// Throws spineless::Error with a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

}  // namespace spineless
