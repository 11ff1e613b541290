#include "core/json_reader.h"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace collie::core {
namespace {

const char* type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
  throw JsonError(what + " at offset " + std::to_string(pos));
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage", pos_);
    return v;
  }

 private:
  // Garbled input can nest arbitrarily deep; a recursion cap turns a
  // potential stack overflow (UB) into a clean JsonError.
  static constexpr int kMaxDepth = 256;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of document", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'", pos_);
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep", pos_);
    skip_ws();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        v.type_ = JsonValue::Type::kString;
        v.str_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        v.type_ = JsonValue::Type::kNull;
        return v;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          v.type_ = JsonValue::Type::kNumber;
          v.num_ = parse_number();
          return v;
        }
        fail(std::string("unexpected character '") + c + "'", pos_);
    }
  }

  JsonValue parse_object(int depth) {
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value(depth + 1));
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
      fail("expected ',' or '}' in object", pos_);
    }
  }

  JsonValue parse_array(int depth) {
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value(depth + 1));
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
      fail("expected ',' or ']' in array", pos_);
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string", pos_ - 1);
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          // BMP code points only; JsonWriter never emits \u, so this is
          // interop slack, not a round-trip path.  Surrogates are rejected.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape", pos_ - 1);
            }
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            fail("surrogate \\u escape unsupported", pos_ - 6);
          }
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail(std::string("unknown escape '\\") + e + "'", pos_ - 1);
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !isdigit_(text_[pos_])) {
      fail("malformed number", start);
    }
    while (pos_ < text_.size() && isdigit_(text_[pos_])) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !isdigit_(text_[pos_])) {
        fail("malformed number", start);
      }
      while (pos_ < text_.size() && isdigit_(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !isdigit_(text_[pos_])) {
        fail("malformed number", start);
      }
      while (pos_ < text_.size() && isdigit_(text_[pos_])) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number", start);
    if (!std::isfinite(v)) fail("number out of range", start);
    return v;
  }

  static bool isdigit_(char c) { return c >= '0' && c <= '9'; }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) {
    throw JsonError(std::string("expected bool, got ") + type_name(type_));
  }
  return bool_;
}

double JsonValue::as_double() const {
  if (type_ != Type::kNumber) {
    throw JsonError(std::string("expected number, got ") + type_name(type_));
  }
  return num_;
}

i64 JsonValue::as_i64() const {
  const double v = as_double();
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (std::floor(v) != v || v > kExact || v < -kExact) {
    throw JsonError("number is not an exactly-representable integer");
  }
  return static_cast<i64>(v);
}

int JsonValue::as_int() const {
  const i64 v = as_i64();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw JsonError("integer " + std::to_string(v) +
                    " is outside the int range");
  }
  return static_cast<int>(v);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) {
    throw JsonError(std::string("expected string, got ") + type_name(type_));
  }
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) {
    throw JsonError(std::string("expected array, got ") + type_name(type_));
  }
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) {
    throw JsonError(std::string("expected object, got ") + type_name(type_));
  }
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw JsonError("missing key \"" + key + "\"");
  return *v;
}

}  // namespace collie::core
