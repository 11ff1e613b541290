// The anomaly monitor (§5.2): turns one measurement into a verdict using the
// paper's two precisely-defined anomaly conditions:
//
//   1. PFC pause frames while the network is not congested: pause duration
//      ratio above 0.1% (the small allowance absorbs setup-time blips) plus
//      what the scenario fabric explains (sim::PauseRule).
//   2. Throughput not bottlenecked by either RNIC spec bound: both the wire
//      bits/s utilization and the packets/s utilization more than 20% below
//      their caps.
#pragma once

#include "workload/engine.h"

namespace collie::core {

enum class Symptom { kNone, kPauseFrames, kLowThroughput };

const char* to_string(Symptom s);

struct MonitorConfig {
  // Condition 1.  Shared with the model: a verdict-only evaluation under
  // this rule (sim::EvalRequest::verdict) yields the same verdict.
  sim::PauseRule pause;
  double util_threshold = 0.8;  // within 20% of a spec bound is healthy
};

struct Verdict {
  Symptom symptom = Symptom::kNone;
  double pause_duration_ratio = 0.0;
  double wire_utilization = 0.0;
  double pps_utilization = 0.0;

  bool anomalous() const { return symptom != Symptom::kNone; }
};

class AnomalyMonitor {
 public:
  explicit AnomalyMonitor(MonitorConfig config = {}) : config_(config) {}

  const MonitorConfig& config() const { return config_; }

  Verdict judge(const workload::Measurement& m) const;

 private:
  MonitorConfig config_;
};

}  // namespace collie::core
