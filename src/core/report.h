// Search result reporting: human-readable MFS reports for developers (the
// §7.3 consumers) and machine-readable JSON/CSV exports for dashboards.
//
// The JSON writer is deliberately minimal (objects, arrays, strings,
// numbers, bools) — enough to serialize search results without an external
// dependency in the offline build environment.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/search.h"

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

// Full search result: experiments, elapsed time, every found anomaly with
// its MFS conditions and discovery time, and the counter trace.
std::string search_result_to_json(const SearchSpace& space,
                                  const SearchResult& result,
                                  bool include_trace = false);

// The trace as CSV rows (t_seconds, counter_value, rx_wqe_cache_miss,
// anomaly_found, in_mfs_extraction) — the raw data behind Figure 6.
std::string trace_to_csv(const SearchResult& result);

// Developer-facing report: for each found anomaly, its symptom, discovery
// time, witness and necessary conditions (the output §7.3's workflows read).
std::string mfs_report(const SearchSpace& space, const SearchResult& result);

}  // namespace collie::core
