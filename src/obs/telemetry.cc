#include "obs/telemetry.h"

#include <algorithm>
#include <string>

#include "common/table.h"
#include "core/json_reader.h"
#include "core/report.h"

namespace collie::obs {

Telemetry::Telemetry(TelemetryOptions opts)
    : registry_([&] {
        RegistryOptions r = opts.registry;
        r.shards = std::max(1, opts.workers);
        return r;
      }()) {
  const int workers = std::max(1, opts.workers);
  rings_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    rings_.emplace_back(opts.span_capacity);
  }
  probe_.experiments = registry_.counter("probe.experiments");
  probe_.anomalies = registry_.counter("probe.anomalies");
  probe_.mfs_extracted = registry_.counter("probe.mfs_extracted");
  probe_.mfs_skips = registry_.counter("probe.mfs_skips");
  for (int s = 0; s < static_cast<int>(ProbeStage::kCount); ++s) {
    probe_.stage_ns[s] = registry_.histogram(
        std::string("probe.stage.") + to_string(static_cast<ProbeStage>(s)) +
        "_ns");
  }
  engine_.remeasures = registry_.counter("engine.remeasures");
  engine_.eval_ns = registry_.histogram("engine.eval_ns");
  pool_.hits = registry_.counter("pool.hits");
  pool_.cross_hits = registry_.counter("pool.cross_hits");
  pool_.warm_hits = registry_.counter("pool.warm_hits");
  pool_.misses = registry_.counter("pool.misses");
  pool_.inserts = registry_.counter("pool.inserts");
  pool_.duplicate_inserts = registry_.counter("pool.duplicate_inserts");
  pool_.epoch_publishes = registry_.counter("pool.epoch_publishes");
  pool_.entries = registry_.gauge("pool.entries");
  fleet_.leases = registry_.counter("fleet.leases");
  fleet_.requeues = registry_.counter("fleet.requeues");
  fleet_.heartbeat_misses = registry_.counter("fleet.heartbeat_misses");
  fleet_.duplicates = registry_.counter("fleet.duplicates");
}

std::string snapshot_to_json(const Snapshot& snap) {
  core::JsonWriter json;
  snap.to_json(&json);
  return json.str();
}

Snapshot snapshot_from_json(const std::string& text) {
  return Snapshot::from_json(core::JsonValue::parse(text));
}

std::string metrics_document(double interval_seconds,
                             const std::vector<Snapshot>& snapshots,
                             const Telemetry& telemetry,
                             const std::string* report_json) {
  // Newest spans exported per worker ring: enough to see what each worker
  // was doing when the document was written, small enough that the file
  // stays readable (the rings themselves hold 256 slots each).
  constexpr int kSpansPerWorker = 64;
  // Torn records (concurrent writer) can hold arbitrary u64 words; clamp
  // ages and durations into the exact-integer range a strict JSON reader
  // accepts so one garbage slot never poisons the whole document.
  constexpr u64 kMaxExact = (u64{1} << 53) - 1;
  core::JsonWriter json;
  json.begin_object();
  json.field("schema", "collie-metrics-v1");
  json.field("interval_seconds", interval_seconds);
  json.begin_array("snapshots");
  for (const Snapshot& snap : snapshots) snap.to_json(&json);
  json.end_array();
  const u64 now = now_ticks();
  json.begin_array("spans");
  for (int w = 0; w < telemetry.workers(); ++w) {
    for (const SpanRecord& rec : telemetry.ring(w).recent(kSpansPerWorker)) {
      const u64 age = now > rec.start_ticks ? now - rec.start_ticks : 0;
      json.begin_object();
      json.field("worker", w);
      json.field("stage", to_string(rec.stage));
      json.field("age_ns", static_cast<i64>(std::min(age, kMaxExact)));
      json.field("duration_ns",
                 static_cast<i64>(std::min(rec.duration_ticks, kMaxExact)));
      json.end_object();
    }
  }
  json.end_array();
  if (report_json != nullptr) {
    json.key("report");
    json.raw_value(*report_json);
  }
  json.end_object();
  return json.str();
}

namespace {

std::string fmt_ns(double ns) {
  if (ns >= 1e9) return fmt_double(ns / 1e9, 2) + " s";
  if (ns >= 1e6) return fmt_double(ns / 1e6, 2) + " ms";
  if (ns >= 1e3) return fmt_double(ns / 1e3, 2) + " us";
  return fmt_double(ns, 0) + " ns";
}

}  // namespace

std::string render_stats(const Snapshot& snap) {
  std::string out;
  out += "== telemetry @ " + fmt_double(snap.t_seconds, 2) + " s ==\n";

  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TextTable table({"counter", "value"});
    for (const auto& [name, v] : snap.counters) {
      // Per-worker busy counters render in the utilization table below.
      if (name.starts_with("campaign.worker.")) continue;
      table.add_row({name, std::to_string(v)});
    }
    for (const auto& [name, v] : snap.gauges) {
      if (name.starts_with("campaign.worker.")) continue;
      table.add_row({name + " (gauge)", std::to_string(v)});
    }
    if (table.rows() > 0) out += table.render();
  }

  if (!snap.histograms.empty()) {
    TextTable table({"histogram", "count", "mean", "p50", "p90", "p99"});
    for (const auto& [name, h] : snap.histograms) {
      table.add_row({name, std::to_string(h.count), fmt_ns(h.mean()),
                     fmt_ns(static_cast<double>(h.quantile(0.5))),
                     fmt_ns(static_cast<double>(h.quantile(0.9))),
                     fmt_ns(static_cast<double>(h.quantile(0.99)))});
    }
    out += table.render();
  }

  // Per-worker utilization from campaign.worker.N.busy_ns vs wall time.
  {
    TextTable table({"worker", "busy", "utilization", "queue depth"});
    const double wall_ns = snap.t_seconds * 1e9;
    for (const auto& [name, v] : snap.counters) {
      const std::string prefix = "campaign.worker.";
      const std::string suffix = ".busy_ns";
      if (!name.starts_with(prefix) || !name.ends_with(suffix)) continue;
      const std::string worker = name.substr(
          prefix.size(), name.size() - prefix.size() - suffix.size());
      i64 depth = 0;
      if (auto it = snap.gauges.find(prefix + worker + ".queue_depth");
          it != snap.gauges.end()) {
        depth = it->second;
      }
      const double util =
          wall_ns > 0 ? static_cast<double>(v) / wall_ns : 0.0;
      table.add_row({worker, fmt_ns(static_cast<double>(v)),
                     fmt_percent(util, 1), std::to_string(depth)});
    }
    if (table.rows() > 0) out += table.render();
  }
  return out;
}

}  // namespace collie::obs
