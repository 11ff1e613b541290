#include "core/monitor.h"

namespace collie::core {

const char* to_string(Symptom s) {
  switch (s) {
    case Symptom::kNone:
      return "none";
    case Symptom::kPauseFrames:
      return "pause frame";
    case Symptom::kLowThroughput:
      return "low throup.";
  }
  return "?";
}

Verdict AnomalyMonitor::judge(const workload::Measurement& m) const {
  Verdict v;
  v.pause_duration_ratio = m.pause_duration_ratio;
  v.wire_utilization = m.wire_utilization;
  v.pps_utilization = m.pps_utilization;
  // Pause frames take precedence: they threaten the whole fabric (§2.1).
  // Under scenario fabrics part of the pause is plain congestion the fabric
  // itself explains; only pause beyond that share (plus a small jitter
  // margin on it) indicts the subsystem.
  if (m.pause_duration_ratio >
      config_.pause.allowance(m.fabric_pause_ratio)) {
    v.symptom = Symptom::kPauseFrames;
  } else if (m.wire_utilization < config_.util_threshold &&
             m.pps_utilization < config_.util_threshold) {
    v.symptom = Symptom::kLowThroughput;
  }
  return v;
}

}  // namespace collie::core
