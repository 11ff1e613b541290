// The default execution backend: the epoch-based performance model.
//
// Owns the CompiledScenario (compiled once per backend, i.e. once per
// engine/cell) and runs the measure loop the engine's performance pass used
// to inline: evaluate (which fetches the four counter samples), stability
// check, one re-measurement.  The golden-row and trajectory tests pin the
// loop bit for bit, and it is allocation-free once the caller's scratch and
// Measurement are warm.
//
// The class is final and measure() is final so the engine's stored
// SimBackend* dispatches directly (no virtual call on the hot path).
#pragma once

#include <string>

#include "workload/backend.h"

namespace collie::workload {

// The measure loop's per-attempt step: copy one evaluation into `m`, then
// apply the stability rule (the four goodput samples within 20% of their
// maximum).  An unstable attempt bumps remeasure_count and charges the
// 10 s re-measurement.  Returns m.stable.
bool apply_result(const sim::SimResult& r, Measurement& m);

class SimBackend final : public Backend {
 public:
  SimBackend(const sim::Subsystem& sys, const EngineOptions& opts);

  BackendKind kind() const override { return BackendKind::kSim; }
  const std::string& substrate() const override;
  void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
               Measurement& out) final;

  const sim::CompiledScenario& compiled() const { return compiled_; }

 private:
  sim::Subsystem sys_;
  obs::ProbeTelemetry telemetry_;
  sim::SimConfig sim_;
  sim::CompiledScenario compiled_;
};

// The default factory (EngineOptions with no factory set is equivalent to
// using this one).
class SimBackendFactory final : public BackendFactory {
 public:
  BackendKind kind() const override { return BackendKind::kSim; }
  const std::string& substrate() const override;
  std::unique_ptr<Backend> create(const sim::Subsystem& sys,
                                  const EngineOptions& opts,
                                  const std::string& context) override;
};

}  // namespace collie::workload
