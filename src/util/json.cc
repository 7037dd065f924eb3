#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "util/error.h"
#include "util/fsio.h"

namespace spineless {

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

void JsonWriter::append_string(const std::string& s) {
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::append_double(double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ += buf;
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
}

void JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
}

void JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
}

void JsonWriter::key(const std::string& k) {
  comma();
  append_string(k);
  out_ += ':';
}

void JsonWriter::kv(const std::string& k, const std::string& v) {
  key(k);
  append_string(v);
  need_comma_ = true;
}

void JsonWriter::kv(const std::string& k, const char* v) {
  kv(k, std::string(v));
}

void JsonWriter::kv(const std::string& k, double v) {
  key(k);
  append_double(v);
  need_comma_ = true;
}

void JsonWriter::kv(const std::string& k, std::int64_t v) {
  key(k);
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::kv(const std::string& k, std::uint64_t v) {
  key(k);
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::kv(const std::string& k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
  need_comma_ = true;
}

void JsonWriter::value(const std::string& v) {
  comma();
  append_string(v);
  need_comma_ = true;
}

void JsonWriter::value(double v) {
  comma();
  append_double(v);
  need_comma_ = true;
}

void JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::value(const JsonWriter& doc) {
  comma();
  out_ += doc.out_;
  need_comma_ = true;
}

bool write_json_file(const std::string& path, const JsonWriter& writer) {
  // Temp-file + rename: a run killed mid-write never leaves a truncated
  // BENCH_*.json behind, and --resume readers see old-or-new, never half.
  return util::atomic_write_file(path, writer.str() + "\n");
}

double json_rounded(double v) {
  if (!std::isfinite(v)) return v;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return std::strtod(buf, nullptr);
}

namespace {

// Requests and sweep-journal records nest at most three levels deep. The
// cap keeps a hostile line of brackets from recursing off the stack.
constexpr int kMaxDepth = 64;

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw Error("json: " + what + " at byte " + std::to_string(pos));
}

[[noreturn]] void kind_error(const char* want) {
  throw Error(std::string("json: value is not ") + want);
}

// An integer literal (no fraction or exponent) converts exactly from its
// text; any other number goes through its double, whose cast is only
// defined inside Int's range — both bounds are exact doubles, and NaN
// fails every comparison.
template <typename Int>
Int to_integer(const std::string& literal, double v, const char* range) {
  if (literal.find_first_of(".eE") == std::string::npos) {
    Int out = 0;
    const char* end = literal.data() + literal.size();
    const auto [ptr, ec] = std::from_chars(literal.data(), end, out);
    if (ec != std::errc() || ptr != end) kind_error(range);
    return out;
  }
  constexpr double kTwo63 = 9223372036854775808.0;
  constexpr double kLo = std::is_signed_v<Int> ? -kTwo63 : 0.0;
  constexpr double kHi = std::is_signed_v<Int> ? kTwo63 : 2 * kTwo63;
  if (!(v >= kLo && v < kHi)) kind_error(range);
  const auto i = static_cast<Int>(v);
  if (static_cast<double>(i) != v) kind_error("an integer");
  return i;
}

}  // namespace

// The recursive-descent reader behind parse_json; JsonValue's friend, so
// it fills values in place.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at(pos_, "trailing characters");
    return v;
  }

 private:
  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth)
          fail_at(pos_, "nesting deeper than " + std::to_string(kMaxDepth));
        JsonValue v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v = make(JsonValue::Kind::kString);
        v.str_ = parse_string();
        return v;
      }
      case 't': expect_word("true"); return make_bool(true);
      case 'f': expect_word("false"); return make_bool(false);
      case 'n': expect_word("null"); return JsonValue();
      default: return parse_number();
    }
  }

  static JsonValue make(JsonValue::Kind kind) {
    JsonValue v;
    v.kind_ = kind;
    return v;
  }

  static JsonValue make_bool(bool b) {
    JsonValue v = make(JsonValue::Kind::kBool);
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    ++pos_;  // '{'
    JsonValue v = make(JsonValue::Kind::kObject);
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail_at(pos_, "expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail_at(pos_, "expected ':' after key");
      ++pos_;
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail_at(pos_, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    ++pos_;  // '['
    JsonValue v = make(JsonValue::Kind::kArray);
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail_at(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        fail_at(pos_, "raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode(out); break;
        default: fail_at(pos_ - 1, "unknown escape");
      }
    }
    fail_at(pos_, "unterminated string");
  }

  void append_unicode(std::string& out) {
    std::uint32_t cp = parse_hex4();
    // Surrogate pair: fold \uD800-\uDBFF + \uDC00-\uDFFF into one code
    // point; an unpaired surrogate is malformed.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail_at(pos_, "unpaired surrogate");
      pos_ += 2;
      const std::uint32_t lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail_at(pos_, "invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail_at(pos_, "unpaired surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail_at(pos_, "truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail_at(pos_ - 1, "bad hex digit in \\u escape");
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_]))
      fail_at(start, "malformed number");
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_]))
        fail_at(pos_, "malformed fraction");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_]))
        fail_at(pos_, "malformed exponent");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    JsonValue v = make(JsonValue::Kind::kNumber);
    v.str_ = text_.substr(start, pos_ - start);
    v.num_ = std::strtod(v.str_.c_str(), nullptr);
    return v;
  }

  void expect_word(const char* word) {
    const std::size_t start = pos_;
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p)
        fail_at(start, std::string("expected '") + word + "'");
      ++pos_;
    }
  }

  static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  char peek() const {
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open objects and arrays around pos_
};

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return num_;
}

std::int64_t JsonValue::as_int() const {
  const double v = as_number();
  return to_integer<std::int64_t>(str_, v, "an integer in int64 range");
}

std::uint64_t JsonValue::as_uint() const {
  const double v = as_number();
  return to_integer<std::uint64_t>(str_, v, "an integer in uint64 range");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace spineless
