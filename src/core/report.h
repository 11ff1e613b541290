// JSON document writer shared by every persistence and report format.
//
// The writer is deliberately minimal (objects, arrays, strings, numbers,
// bools) — enough to serialize campaign documents without an external
// dependency in the offline build environment.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/workload.h"

namespace collie::core {

// Minimal JSON document builder.  Values are appended in document order;
// the caller is responsible for balanced begin/end calls (asserted).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key = "");
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(i64 v);
  JsonWriter& value(int v) { return value(static_cast<i64>(v)); }
  JsonWriter& value(bool v);
  // Splice a pre-serialized JSON value verbatim (commas handled like any
  // other value).  The caller owns its validity — this is how one writer's
  // finished document (a campaign report, a metrics snapshot) embeds in
  // another without re-parsing.
  JsonWriter& raw_value(const std::string& json_text);
  // key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  std::string str() const { return out_; }
  static std::string escape(std::string_view s);

 private:
  void maybe_comma();
  std::string out_;
  std::vector<bool> needs_comma_;
};

// One workload as a JSON object (all four search dimensions).
void workload_to_json(const Workload& w, JsonWriter* json);

}  // namespace collie::core
