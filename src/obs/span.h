// Probe-stage spans: fixed-capacity per-worker ring buffers of timed
// stages, the "flight recorder" companion to the aggregate registry in
// obs/metrics.h.
//
// Histograms answer "how slow are evaluate() calls overall"; the span ring
// answers "what were the last N stage timings on worker 3 when it
// stalled".  One probe produces up to five spans (sample -> MatchMFS ->
// evaluate -> monitor -> extract), each a 24-byte record written with
// relaxed atomic stores into a slot preallocated at construction — no
// locks, no allocation, one ring per logical worker, concurrent readers
// tolerated (a reader may see a torn record across fields; it never sees
// UB, and snapshot consumers treat records as best-effort diagnostics).
// Two threads running cells of one logical worker at once (cells of
// different pool scopes, or logical workers past the ring count) may
// overwrite each other's records, with the same guarantee.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/units.h"

namespace collie::obs {

// The five stages of one probe in SearchDriver::step / the SA loop,
// in execution order.
enum class ProbeStage {
  kSample = 0,   // draw/mutate a candidate workload
  kMatchMfs,     // MatchMFS covers() check against the pool/store
  kEvaluate,     // workload engine run (functional + performance pass)
  kMonitor,      // anomaly monitor judgement
  kExtract,      // MFS extraction (necessity probes)
  kCount,
};

const char* to_string(ProbeStage stage);

struct SpanRecord {
  ProbeStage stage = ProbeStage::kSample;
  u64 start_ticks = 0;     // obs::now_ticks() at stage entry
  u64 duration_ticks = 0;  // stage wall time, ns
};

class SpanRing {
 public:
  // Capacity is rounded up to a power of two so the hot-path index is a
  // mask, not a modulo.
  explicit SpanRing(int capacity = 256);
  SpanRing(SpanRing&&) = default;
  SpanRing& operator=(SpanRing&&) = default;

  int capacity() const { return static_cast<int>(slots_.size()); }
  u64 recorded() const { return head_->load(std::memory_order_relaxed); }

  // Hot path: overwrite the oldest slot.
  void record(ProbeStage stage, u64 start_ticks, u64 duration_ticks);

  // Newest-first copy of up to max records (reporting path; allocates).
  std::vector<SpanRecord> recent(int max) const;

 private:
  struct Slot {
    std::atomic<u64> stage{0};
    std::atomic<u64> start{0};
    std::atomic<u64> duration{0};
  };
  // unique_ptr members keep the ring movable (atomics are not).
  std::unique_ptr<std::atomic<u64>> head_ =
      std::make_unique<std::atomic<u64>>(0);
  std::vector<Slot> slots_;
};

}  // namespace collie::obs
