#include "workload/backend_sim.h"

#include <algorithm>

namespace collie::workload {

namespace {
const std::string kSimSubstrate = "sim";
}  // namespace

SimBackend::SimBackend(const sim::Subsystem& sys, const EngineOptions& opts)
    : sys_(sys),
      telemetry_(opts.telemetry),
      sim_(opts.sim),
      compiled_(sys_) {}

const std::string& SimBackend::substrate() const { return kSimSubstrate; }

bool apply_result(const sim::SimResult& r, Measurement& m) {
  // The model already fetched the four §6 samples; copying into the
  // caller's warm vectors reuses their capacity.
  m.samples = r.samples;
  m.average = r.counters;
  m.pause_duration_ratio = r.pause_duration_ratio;
  m.fabric_pause_ratio = r.fabric_pause_ratio;
  m.cc_suppressed_ratio = r.cc_suppressed_ratio;
  m.wire_utilization = r.wire_utilization;
  m.pps_utilization = r.pps_utilization;
  m.rx_goodput_bps = r.rx_goodput_bps;
  m.dominant = r.dominant;
  m.bottleneck_note = r.bottleneck_note;

  // Stability: coefficient of variation of delivered goodput across the
  // four samples.
  double lo = 1e300;
  double hi = 0.0;
  for (const auto& s : m.samples) {
    const double v = s.get(sim::PerfCounter::kRxGoodputBps);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  m.stable = hi <= 0.0 || (hi - lo) / hi < 0.2;
  if (!m.stable) {
    m.remeasure_count++;
    m.cost_seconds += 10.0;
  }
  return m.stable;
}

void SimBackend::measure(const Workload& w, Rng& rng,
                         sim::EvalScratch& scratch, Measurement& m) {
  // Measure; re-measure once if the four samples disagree (§6: the monitor
  // "first decides whether the traffic is stable").  The compiled scenario
  // reuses the caller's scratch instead of rebuilding per probe; it is
  // bit-for-bit identical to the uncompiled sim::evaluate.  Every request
  // still yields the perf samples the stability check reads.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const u64 eval_start = telemetry_.begin();
    const sim::SimResult& r =
        sim::evaluate(compiled_, w, rng, scratch, sim_, m.request);
    if (telemetry_.enabled()) {
      telemetry_.observe(telemetry_.engine_ids().eval_ns,
                         obs::now_ticks() - eval_start);
    }
    if (apply_result(r, m)) break;
    if (telemetry_.enabled()) {
      telemetry_.add(telemetry_.engine_ids().remeasures);
    }
  }
}

const std::string& SimBackendFactory::substrate() const {
  return kSimSubstrate;
}

std::unique_ptr<Backend> SimBackendFactory::create(const sim::Subsystem& sys,
                                                   const EngineOptions& opts,
                                                   const std::string&) {
  return std::make_unique<SimBackend>(sys, opts);
}

}  // namespace collie::workload
