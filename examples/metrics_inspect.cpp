// Inspect a collie-metrics-v1 document (the campaign CLI's --metrics-out
// file): validate it parses with core/json_reader, then print the human
// telemetry tables for the latest snapshot.
//
//   $ ./campaign --sys B --hours 1 --metrics-out metrics.json
//   $ ./metrics_inspect metrics.json
//
// Exit status is non-zero on a missing/garbled document, which is what the
// CI bench-smoke job uses to gate the snapshot schema.
#include <cstdio>
#include <string>

#include "common/durable_io.h"
#include "common/units.h"
#include "core/json_reader.h"
#include "obs/telemetry.h"

using namespace collie;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: metrics_inspect <metrics.json>\n");
    return 2;
  }
  std::string text;
  if (!durable_io::read_file(argv[1], &text)) {
    std::fprintf(stderr, "cannot read '%s'\n", argv[1]);
    return 2;
  }

  try {
    const core::JsonValue doc = core::JsonValue::parse(text);
    const std::string& schema = doc.at("schema").as_string();
    if (schema != "collie-metrics-v1") {
      std::fprintf(stderr, "unexpected schema '%s'\n", schema.c_str());
      return 1;
    }
    const auto& snaps = doc.at("snapshots").items();
    if (snaps.empty()) {
      std::fprintf(stderr, "document has no snapshots\n");
      return 1;
    }
    // Re-merging every snapshot through the monoid must be legal on any
    // valid document; it also exercises the full parse of each one.
    obs::Snapshot merged;
    for (const core::JsonValue& s : snaps) {
      merged.merge(obs::Snapshot::from_json(s));
    }
    const obs::Snapshot latest = obs::Snapshot::from_json(snaps.back());
    // The span flight recorder: every record must name a known probe stage
    // and carry non-negative i64 timings (as_i64 itself rejects the
    // non-integral and out-of-range cases).
    std::size_t span_count = 0;
    for (const core::JsonValue& span : doc.at("spans").items()) {
      const std::string& stage = span.at("stage").as_string();
      bool known = false;
      for (int s = 0; s < static_cast<int>(obs::ProbeStage::kCount); ++s) {
        if (stage == obs::to_string(static_cast<obs::ProbeStage>(s))) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::fprintf(stderr, "unknown span stage '%s'\n", stage.c_str());
        return 1;
      }
      if (span.at("worker").as_i64() < 0 || span.at("age_ns").as_i64() < 0 ||
          span.at("duration_ns").as_i64() < 0) {
        std::fprintf(stderr, "negative span timing\n");
        return 1;
      }
      ++span_count;
    }
    std::printf("%s: %zu snapshot%s, %zu span%s, interval %.0f s%s\n",
                argv[1], snaps.size(), snaps.size() == 1 ? "" : "s",
                span_count, span_count == 1 ? "" : "s",
                doc.at("interval_seconds").as_double(),
                doc.has("report") ? ", report embedded" : "");
    std::printf("%s", obs::render_stats(latest).c_str());
  } catch (const core::JsonError& e) {
    std::fprintf(stderr, "bad metrics document: %s\n", e.what());
    return 1;
  }
  return 0;
}
