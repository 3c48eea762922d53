#include "trace/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tahoe::trace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) os_ << ',';
    has_item_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  os_ << '{';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  has_item_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  os_ << '[';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  has_item_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  comma();
  os_ << json_escape(k) << ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  os_ << json_escape(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string(v));
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; clamp to null so documents stay parseable.
    os_ << "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  os_ << "null";
  return *this;
}

namespace {

/// Deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so a hostile `[[[[...` document would otherwise exhaust
/// the stack; every document the project writes nests fewer than ten deep.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::String;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode (surrogate pairs unsupported; the writers only
          // escape control characters, which are single code units).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number '" + text_.substr(start, pos_ - start) + "'");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace tahoe::trace
