// Tests for the obs layer: registry shard semantics, the snapshot monoid
// (merge associativity/commutativity, JSON round trip), log2 histogram
// bucketing, the span ring and the telemetry facade's stats rendering.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/json_reader.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry.h"

namespace collie::obs {
namespace {

// ---- Registry -------------------------------------------------------------

TEST(Registry, CountersSumAcrossShards) {
  RegistryOptions opts;
  opts.shards = 4;
  Registry reg(opts);
  const CounterId c = reg.counter("events");
  reg.add(0, c, 3);
  reg.add(1, c, 5);
  reg.add(3, c, 7);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("events"), 15);
}

TEST(Registry, RegistrationIsIdempotent) {
  Registry reg;
  const CounterId a = reg.counter("x");
  const CounterId b = reg.counter("x");
  EXPECT_EQ(a.v, b.v);
  const HistogramId h1 = reg.histogram("h");
  const HistogramId h2 = reg.histogram("h");
  EXPECT_EQ(h1.v, h2.v);
}

TEST(Registry, ShardIndexIsClampedModulo) {
  RegistryOptions opts;
  opts.shards = 2;
  Registry reg(opts);
  const CounterId c = reg.counter("c");
  // Workers 0..7 all land on a valid shard; totals are preserved.
  for (int w = 0; w < 8; ++w) reg.add(w, c, 1);
  reg.add(-3, c, 1);  // negative worker index must not be UB either
  EXPECT_EQ(reg.snapshot().counters.at("c"), 9);
}

TEST(Registry, InvalidIdsAreNoOps) {
  Registry reg;
  reg.add(0, CounterId{}, 5);
  reg.gauge_set(0, GaugeId{}, 5);
  reg.observe(0, HistogramId{}, 5);
  const Snapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(Registry, CapacityOverflowThrowsAtSetupTime) {
  RegistryOptions opts;
  opts.max_counters = 2;
  Registry reg(opts);
  reg.counter("a");
  reg.counter("b");
  EXPECT_THROW(reg.counter("c"), std::length_error);
  // Re-registering an existing name still works at capacity.
  EXPECT_EQ(reg.counter("a").v, 0);
}

TEST(Registry, GaugeSetAndAdd) {
  RegistryOptions opts;
  opts.shards = 2;
  Registry reg(opts);
  const GaugeId g = reg.gauge("depth");
  reg.gauge_set(0, g, 10);
  reg.gauge_add(0, g, -3);
  // Gauges sum across shards (single-writer-per-shard discipline).
  reg.gauge_set(1, g, 2);
  EXPECT_EQ(reg.snapshot().gauges.at("depth"), 9);
}

// ---- Histograms -----------------------------------------------------------

TEST(Histogram, BucketPropertyHolds) {
  // Every value lands in the bucket whose range contains it:
  // bucket 0 = {0}, bucket b = [2^(b-1), 2^b).
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const u64 v = rng.next_u64() >> (rng.next_u64() % 64);
    const int b = histogram_bucket(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, kHistogramBuckets);
    EXPECT_EQ(b, std::bit_width(v));
    EXPECT_LE(v, histogram_bucket_upper(b));
    if (b > 0) {
      EXPECT_GT(v, histogram_bucket_upper(b - 1));
    }
  }
  EXPECT_EQ(histogram_bucket(0), 0);
  EXPECT_EQ(histogram_bucket(1), 1);
  EXPECT_EQ(histogram_bucket(2), 2);
  EXPECT_EQ(histogram_bucket(3), 2);
  EXPECT_EQ(histogram_bucket(4), 3);
}

TEST(Histogram, SumOfBucketsEqualsCount) {
  Registry reg;
  const HistogramId h = reg.histogram("lat");
  Rng rng(7);
  u64 expected_sum = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const u64 v = rng.next_u64() >> 40;
    expected_sum += v;
    reg.observe(0, h, v);
  }
  // Copy out: snapshot() returns a temporary that dies at the semicolon.
  const HistogramData data = reg.snapshot().histograms.at("lat");
  EXPECT_EQ(data.count, static_cast<u64>(n));
  EXPECT_EQ(data.sum, expected_sum);
  u64 bucket_total = 0;
  for (u64 b : data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, static_cast<u64>(n));
}

TEST(Histogram, QuantileSanity) {
  HistogramData h;
  // 90 fast observations (value 1) and 10 slow (value 1000).
  for (int i = 0; i < 90; ++i) {
    h.buckets[histogram_bucket(1)] += 1;
    h.sum += 1;
  }
  for (int i = 0; i < 10; ++i) {
    h.buckets[histogram_bucket(1000)] += 1;
    h.sum += 1000;
  }
  h.count = 100;
  EXPECT_EQ(h.quantile(0.5), histogram_bucket_upper(histogram_bucket(1)));
  EXPECT_EQ(h.quantile(0.99),
            histogram_bucket_upper(histogram_bucket(1000)));
  EXPECT_DOUBLE_EQ(h.mean(), (90.0 * 1 + 10.0 * 1000) / 100.0);
  EXPECT_EQ(HistogramData{}.quantile(0.5), 0u);
}

// ---- Snapshot monoid ------------------------------------------------------

Snapshot random_snapshot(Rng& rng) {
  Snapshot s;
  s.t_seconds = rng.uniform() * 100.0;
  const char* counter_names[] = {"a", "b", "c", "d"};
  const char* gauge_names[] = {"g1", "g2"};
  const char* hist_names[] = {"h1", "h2"};
  for (const char* n : counter_names) {
    if (rng.bernoulli(0.7)) s.counters[n] = rng.uniform_int(-10, 1000);
  }
  for (const char* n : gauge_names) {
    if (rng.bernoulli(0.7)) s.gauges[n] = rng.uniform_int(-5, 50);
  }
  for (const char* n : hist_names) {
    if (!rng.bernoulli(0.7)) continue;
    HistogramData h;
    const int obs_count = static_cast<int>(rng.uniform_int(0, 20));
    for (int i = 0; i < obs_count; ++i) {
      const u64 v = static_cast<u64>(rng.uniform_int(0, 1 << 20));
      h.buckets[histogram_bucket(v)] += 1;
      h.sum += v;
      h.count += 1;
    }
    s.histograms[n] = h;
  }
  return s;
}

Snapshot merged(const Snapshot& a, const Snapshot& b) {
  Snapshot out = a;
  out.merge(b);
  return out;
}

TEST(Snapshot, MergeIsCommutativeAndAssociative) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const Snapshot a = random_snapshot(rng);
    const Snapshot b = random_snapshot(rng);
    const Snapshot c = random_snapshot(rng);
    EXPECT_EQ(merged(a, b), merged(b, a));
    EXPECT_EQ(merged(merged(a, b), c), merged(a, merged(b, c)));
  }
}

TEST(Snapshot, DefaultIsMergeIdentity) {
  Rng rng(5);
  const Snapshot a = random_snapshot(rng);
  EXPECT_EQ(merged(a, Snapshot{}), a);
  EXPECT_EQ(merged(Snapshot{}, a), a);
}

TEST(Snapshot, MergeSumsPointwiseAndKeepsMaxTime) {
  Snapshot a;
  a.t_seconds = 3.0;
  a.counters["x"] = 10;
  a.counters["only_a"] = 1;
  Snapshot b;
  b.t_seconds = 7.0;
  b.counters["x"] = 5;
  b.counters["only_b"] = 2;
  const Snapshot m = merged(a, b);
  EXPECT_DOUBLE_EQ(m.t_seconds, 7.0);
  EXPECT_EQ(m.counters.at("x"), 15);
  EXPECT_EQ(m.counters.at("only_a"), 1);
  EXPECT_EQ(m.counters.at("only_b"), 2);
}

TEST(Snapshot, JsonRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const Snapshot s = random_snapshot(rng);
    const Snapshot back = snapshot_from_json(snapshot_to_json(s));
    EXPECT_EQ(back, s);
  }
  // Registry-produced snapshots round-trip too (sparse buckets and all).
  Registry reg;
  const CounterId c = reg.counter("n");
  const HistogramId h = reg.histogram("lat");
  reg.add(0, c, 42);
  reg.observe(0, h, 1000);
  reg.observe(0, h, 0);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(snapshot_from_json(snapshot_to_json(s)), s);
}

TEST(Snapshot, FromJsonRejectsGarbage) {
  EXPECT_THROW(snapshot_from_json("{"), core::JsonError);
  EXPECT_THROW(snapshot_from_json("[]"), core::JsonError);
  // Histogram cell with a bucket out of range.
  EXPECT_THROW(
      snapshot_from_json(
          R"({"t_seconds":0,"counters":{},"gauges":{},)"
          R"("histograms":{"h":{"count":1,"sum":1,"buckets":[[999,1]]}}})"),
      core::JsonError);
}

// ---- Span ring ------------------------------------------------------------

TEST(SpanRing, NewestFirstAndWraps) {
  SpanRing ring(4);  // power of two already
  EXPECT_EQ(ring.capacity(), 4);
  for (int i = 0; i < 10; ++i) {
    ring.record(ProbeStage::kEvaluate, static_cast<u64>(100 + i), 5);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  const std::vector<SpanRecord> recs = ring.recent(8);
  ASSERT_EQ(recs.size(), 4u);  // capacity-bounded
  EXPECT_EQ(recs[0].start_ticks, 109u);  // newest first
  EXPECT_EQ(recs[1].start_ticks, 108u);
  EXPECT_EQ(recs[3].start_ticks, 106u);
  for (const SpanRecord& r : recs) {
    EXPECT_EQ(r.stage, ProbeStage::kEvaluate);
    EXPECT_EQ(r.duration_ticks, 5u);
  }
}

TEST(SpanRing, CapacityRoundsUpToPowerOfTwo) {
  SpanRing ring(5);
  EXPECT_EQ(ring.capacity(), 8);
  EXPECT_TRUE(ring.recent(3).empty());
}

TEST(SpanRing, StageNamesCoverAllStages) {
  for (int i = 0; i < static_cast<int>(ProbeStage::kCount); ++i) {
    const std::string name = to_string(static_cast<ProbeStage>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
  }
}

// ---- Telemetry facade -----------------------------------------------------

TEST(Telemetry, DisabledHandleIsInert) {
  ProbeTelemetry off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.begin(), 0u);
  // None of these may crash or dereference anything.
  off.end_stage(ProbeStage::kEvaluate, 0);
  off.add(CounterId{0}, 1);
  off.observe(HistogramId{0}, 1);
  off.gauge_set(GaugeId{0}, 1);
}

TEST(Telemetry, EnabledHandleRecordsSpansAndCounters) {
  TelemetryOptions opts;
  opts.workers = 2;
  Telemetry tel(opts);
  ProbeTelemetry pt(&tel, 1);
  ASSERT_TRUE(pt.enabled());
  const u64 t0 = pt.begin();
  EXPECT_GT(t0, 0u);
  pt.end_stage(ProbeStage::kMonitor, t0);
  pt.add(tel.probe_ids().experiments, 2);

  const Snapshot snap = tel.snapshot();
  EXPECT_EQ(snap.counters.at("probe.experiments"), 2);
  EXPECT_EQ(snap.histograms.at("probe.stage.monitor_ns").count, 1u);
  EXPECT_EQ(tel.ring(1).recorded(), 1u);
  EXPECT_EQ(tel.ring(0).recorded(), 0u);
  // Worker clamp: ring(3) on a 2-worker telemetry is ring(1).
  EXPECT_EQ(&tel.ring(3), &tel.ring(1));
}

TEST(Telemetry, RenderStatsShowsCountersAndQuantiles) {
  Telemetry tel;
  ProbeTelemetry pt(&tel, 0);
  pt.add(tel.probe_ids().experiments, 19);
  pt.add(tel.probe_ids().anomalies, 3);
  pt.observe(tel.engine_ids().eval_ns, 4096);
  const std::string stats = render_stats(tel.snapshot());
  EXPECT_NE(stats.find("probe.experiments"), std::string::npos);
  EXPECT_NE(stats.find("19"), std::string::npos);
  EXPECT_NE(stats.find("engine.eval_ns"), std::string::npos);
  EXPECT_NE(stats.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace collie::obs
