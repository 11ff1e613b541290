// Hardware counter registry.
//
// The paper's second key idea (§5.1): commodity RDMA subsystems expose two
// families of counters.  *Performance counters* (bits/packets per second)
// exist on every RNIC; *diagnostic counters* map to unexpected internal
// events (PCIe backpressure, cache misses...) and are vendor-dependent — the
// authors' vendors exposed nine of them, so we model nine.
//
// Search algorithms treat counters as opaque doubles keyed by id; they never
// interpret the semantics, only drive perf counters low / diag counters high.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/units.h"

namespace collie::sim {

enum class PerfCounter : int {
  kTxGoodputBps = 0,
  kRxGoodputBps,
  kTxPps,
  kRxPps,
  kCount,
};

enum class DiagCounter : int {
  kRxWqeCacheMiss = 0,      // receive WQE fetched from host DRAM (Figure 6)
  kQpcCacheMiss,            // connection-context ICM fetches
  kMttCacheMiss,            // memory-translation ICM fetches
  kPcieInternalBackpressure,
  kPcieOrderingStall,
  kRxBufferOccupancy,       // bytes, averaged
  kNicIncastEvents,         // internal loopback/receive collisions
  kTxPipelineStall,
  kAckProcessingLoad,
  kCount,
};

inline constexpr int kNumPerfCounters = static_cast<int>(PerfCounter::kCount);
inline constexpr int kNumDiagCounters = static_cast<int>(DiagCounter::kCount);

// A set of diagnostic counters, one bit per DiagCounter.
using DiagMask = u16;
inline constexpr DiagMask kAllDiagCounters =
    static_cast<DiagMask>((1u << kNumDiagCounters) - 1);
constexpr DiagMask diag_bit(DiagCounter c) {
  return static_cast<DiagMask>(1u << static_cast<int>(c));
}
constexpr DiagMask diag_bit(int index) {
  return static_cast<DiagMask>(1u << index);
}

const char* name(PerfCounter c);
const char* name(DiagCounter c);

// One sampled snapshot of every counter (the vendor monitors export values
// once per second; Collie fetches them four times per iteration, §6).
struct CounterSample {
  std::array<double, kNumPerfCounters> perf{};
  std::array<double, kNumDiagCounters> diag{};

  double get(PerfCounter c) const {
    return perf[static_cast<std::size_t>(c)];
  }
  double get(DiagCounter c) const {
    return diag[static_cast<std::size_t>(c)];
  }
  void set(PerfCounter c, double v) {
    perf[static_cast<std::size_t>(c)] = v;
  }
  void set(DiagCounter c, double v) {
    diag[static_cast<std::size_t>(c)] = v;
  }

  // Element-wise average of several samples.
  static CounterSample average(const std::vector<CounterSample>& samples);
};

}  // namespace collie::sim
