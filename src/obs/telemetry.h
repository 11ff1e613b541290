// Telemetry facade: the registry plus per-worker span rings plus the
// well-known instrument set the campaign stack shares.
//
// One Telemetry object lives for a campaign run (owned by the CLI or a
// test); everything below it receives either a `Telemetry*` (setup-time
// consumers: pool, campaign) or a by-value `ProbeTelemetry` handle
// (hot-path consumers: SearchDriver, Engine).  A default-constructed
// ProbeTelemetry is the "metrics off" mode — every call is one pointer
// test, no atomics, no timestamps — so the probe path carries no cost when
// telemetry is not requested.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace collie::obs {

struct TelemetryOptions {
  // Shard / span-ring count.  Logical workers above this share shards
  // (indices are clamped modulo), so replaying a campaign recorded at a
  // higher worker count stays safe.
  int workers = 4;
  // Span slots per worker ring.
  int span_capacity = 256;
  RegistryOptions registry;
};

// Instrument handles for the probe loop, registered once at Telemetry
// construction so hot paths never touch the registration mutex.
struct ProbeIds {
  CounterId experiments;     // engine runs that completed
  CounterId anomalies;       // monitor verdicts that fired
  CounterId mfs_extracted;   // MFSes constructed
  CounterId mfs_skips;       // probes skipped via MatchMFS coverage
  HistogramId stage_ns[static_cast<int>(ProbeStage::kCount)];
};

struct EngineIds {
  CounterId remeasures;  // unstable measurements re-run (+10 s)
  HistogramId eval_ns;   // one perf-model evaluation, wall ns
};

struct PoolIds {
  CounterId hits;               // covers() matched (local scope)
  CounterId cross_hits;         // covers() matched an entry from another cell
  CounterId warm_hits;          // covers() matched a warm-start entry
  CounterId misses;             // covers() found nothing
  CounterId inserts;            // new MFS entries published
  CounterId duplicate_inserts;  // insert dropped as same-region duplicate
  GaugeId entries;              // live entries across scopes
};

struct FleetIds {
  CounterId leases;            // cells leased to executors
  CounterId requeues;          // cells re-queued after an executor death
  CounterId heartbeat_misses;  // executors declared dead on heartbeat timeout
  CounterId duplicates;        // duplicate protocol messages discarded
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions opts = {});

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  int workers() const { return static_cast<int>(rings_.size()); }
  SpanRing& ring(int worker) { return rings_[clamp_worker(worker)]; }
  const SpanRing& ring(int worker) const {
    return rings_[clamp_worker(worker)];
  }

  const ProbeIds& probe_ids() const { return probe_; }
  const EngineIds& engine_ids() const { return engine_; }
  const PoolIds& pool_ids() const { return pool_; }
  const FleetIds& fleet_ids() const { return fleet_; }

  Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  int clamp_worker(int worker) const {
    const int n = static_cast<int>(rings_.size());
    return worker < 0 ? 0 : worker % n;
  }
  Registry registry_;
  std::vector<SpanRing> rings_;
  ProbeIds probe_;
  EngineIds engine_;
  PoolIds pool_;
  FleetIds fleet_;
};

// Per-worker hot-path handle: a (Telemetry*, shard) pair cheap enough to
// copy into EngineOptions and SearchDriver.  Null telemetry = all no-ops.
class ProbeTelemetry {
 public:
  ProbeTelemetry() = default;
  ProbeTelemetry(Telemetry* t, int worker)
      : t_(t), worker_(t ? worker : 0) {}

  bool enabled() const { return t_ != nullptr; }
  Telemetry* telemetry() const { return t_; }
  int worker() const { return worker_; }

  // Stage timing: `const u64 t0 = pt.begin(); ...; pt.end_stage(stage, t0);`
  // begin() returns 0 when disabled so the subtraction stays harmless.
  u64 begin() const { return t_ ? now_ticks() : 0; }
  void end_stage(ProbeStage stage, u64 start_ticks) const {
    if (!t_) return;
    const u64 now = now_ticks();
    const u64 dur = now - start_ticks;
    t_->registry().observe(worker_,
                           t_->probe_ids().stage_ns[static_cast<int>(stage)],
                           dur);
    t_->ring(worker_).record(stage, start_ticks, dur);
  }

  void add(CounterId id, i64 delta = 1) const {
    if (t_) t_->registry().add(worker_, id, delta);
  }
  void observe(HistogramId id, u64 value) const {
    if (t_) t_->registry().observe(worker_, id, value);
  }
  void gauge_set(GaugeId id, i64 value) const {
    if (t_) t_->registry().gauge_set(worker_, id, value);
  }

  // Well-known id groups (only valid to call when enabled()).
  const ProbeIds& probe_ids() const { return t_->probe_ids(); }
  const EngineIds& engine_ids() const { return t_->engine_ids(); }

 private:
  Telemetry* t_ = nullptr;
  int worker_ = 0;
};

// One snapshot as a standalone JSON document (Snapshot::to_json wrapped in
// a string) and back.  Convenience for tools and tests.
std::string snapshot_to_json(const Snapshot& snap);
Snapshot snapshot_from_json(const std::string& text);

// The collie-metrics-v1 document (schema in README.md): `snapshots` in
// capture order, the span rings ("flight recorder"), then, once the
// campaign is done, the report with metrics embedded (`report_json`, null
// while it runs).  The span array holds, per worker, the newest records of
// {worker, stage, age_ns, duration_ns}.  Ages are relative to one
// now_ticks() taken at entry: absolute tick values never leave the process,
// both because they are meaningless across runs and because
// ns-since-boot can exceed the 2^53 integer range strict JSON readers
// accept.  Torn records (the rings are read concurrently with writers) are
// best-effort diagnostics, same as SpanRing::recent.
std::string metrics_document(double interval_seconds,
                             const std::vector<Snapshot>& snapshots,
                             const Telemetry& telemetry,
                             const std::string* report_json);

// Human-readable roll-up via common/table: counter totals, histogram
// p50/p90/p99/mean, and per-worker busy-time utilization (computed from
// campaign.worker.N.busy_ns counters against t_seconds).  Shared by the
// campaign CLI's --stats flag and the metrics_inspect tool.
std::string render_stats(const Snapshot& snap);

}  // namespace collie::obs
