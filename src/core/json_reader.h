// Minimal JSON parser: the inverse of core::JsonWriter.
//
// Collie's persistence layer (MFS-pool checkpoints, recorded steal
// schedules, campaign reports) round-trips through JSON so nightly campaigns
// can warm-start from yesterday's explained regions.  The parser is strict
// where it matters for that job — truncated or garbled documents are
// rejected with a JsonError, never undefined behaviour — and deliberately
// small: objects, arrays, strings, numbers, bools, null, the exact value
// set JsonWriter emits.  No external dependency, matching the writer.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace collie::core {

// Raised for any malformed document: truncation, trailing garbage, bad
// escapes, malformed numbers, nesting past the depth cap, or a typed
// accessor applied to the wrong value kind / a missing key.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parse a complete document.  Leading/trailing whitespace is allowed;
  // anything else after the first value throws.
  static JsonValue parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // Typed accessors; each throws JsonError on a kind mismatch.
  bool as_bool() const;
  double as_double() const;
  // Numbers that are not exactly representable integers (non-integral or
  // beyond 2^53 in magnitude) throw rather than silently round.
  i64 as_i64() const;
  // as_i64 narrowed to int; a value outside the int range throws instead of
  // wrapping.
  int as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  // array elements
  // Object members in document order (duplicate keys are preserved;
  // at()/find() return the first).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  bool has(const std::string& key) const { return find(key) != nullptr; }
  // First member with this key, or nullptr / JsonError for a missing one.
  const JsonValue* find(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

}  // namespace collie::core
