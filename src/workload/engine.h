// The workload engine (§4, "Workload engine"): sets up RDMA traffic for one
// point of the search space and measures it.
//
// Like the paper's engine, it is "more flexible and has a holistic view"
// than perftest-style tools: it supports arbitrary WQE/SGE batching
// strategies, pre-defined message patterns, arbitrary memory/transport
// settings, bidirectional and loopback traffic.
//
// Every probe takes one path: Engine::run hands the full-scale workload to
// an execution Backend (workload/backend.h), which evaluates it on the
// subsystem model and samples the hardware counters four times per
// iteration (§6), with a stability check and re-measurement.  The backend is
// the simulator by default, journaled probes or scripted mocks when the
// engine options carry a factory.  The built-in simulator is called directly
// (on the final SimBackend), so the seam costs the hot path nothing.
//
// validate_functional is the verbs-legality check, kept off the probe path
// (DESIGN.md, "The performance pass and the functional verbs audit"): it
// builds the actual verbs program (MRs, CQs, QPs, connection setup, batched
// post_send/post_recv, poll_cq) at a scaled-down connection count, pushes
// one full pattern round through the in-memory fabric and verifies that
// every byte lands where it should.  `campaign --functional` runs it once
// per reported distinct anomaly's witness.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/telemetry.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"
#include "sim/workload.h"

namespace collie::workload {

class Backend;
class BackendFactory;
class SimBackend;

// What the anomaly monitor and the workload generator receive after one
// experiment ("iteration") on the subsystem.
struct Measurement {
  // The caller's request, set by Engine::run before the backend measures:
  // what the probe's reader will read, and a backend may compute no more.
  // The simulator leaves the diagnostic counters the request does not name
  // zero in the samples and the average; a verdict-only request also
  // leaves the average and the note zero / empty, and its
  // pause_duration_ratio is exact at or below the rule's allowance and
  // otherwise a lower bound still above it (sim::evaluate).  A backend may
  // ignore the request; one that serves a recorded Measurement (a journal
  // replay) returns it as recorded.
  sim::EvalRequest request;

  // Four once-per-second counter fetches (§6) and their average.
  std::vector<sim::CounterSample> samples;
  sim::CounterSample average;

  // Primary metrics (§5.2: throughput and pause duration).
  double pause_duration_ratio = 0.0;
  // Pause share explained by the fabric scenario itself (port-rate mismatch
  // or ToR fan-in); the monitor discounts it.  Zero on the paper's testbed.
  // (Per-port pause stays on sim::SimResult — the monitor only needs the
  // fabric-explained share.)
  double fabric_pause_ratio = 0.0;
  // Demand share the DCQCN rate limiter withheld (CC-armed scenarios only).
  // Deliberately NOT folded into fabric_pause_ratio: suppressed demand
  // never reached the wire, so it explains missing throughput, not pause.
  double cc_suppressed_ratio = 0.0;
  double wire_utilization = 0.0;
  double pps_utilization = 0.0;
  double rx_goodput_bps = 0.0;

  bool stable = false;
  int remeasure_count = 0;

  // Simulated wall-clock cost of the experiment (20-60 s).
  double cost_seconds = 0.0;

  // Ground-truth diagnostics (never consulted by the search).
  sim::Bottleneck dominant = sim::Bottleneck::kNone;
  std::string bottleneck_note;
};

struct EngineOptions {
  // Has no effect: the verbs pass is not part of Engine::run.  Kept only
  // because the campaign benchmark assigns it; drop it with the next change
  // to the benchmark.
  bool run_functional_pass = false;
  // Hot-path telemetry handle (worker-sharded).  Default-constructed =
  // metrics off; every instrumentation point is then one pointer test.
  obs::ProbeTelemetry telemetry;
  // Model configuration (epoch count and length, warmup, jitter).
  sim::SimConfig sim;
  // Execution backend.  Null = the built-in simulator backend.  Not owned:
  // the factory must outlive every engine built from these options (the
  // campaign owns one factory for the whole run and builds one engine per
  // cell).  `backend_context` names this engine's probe stream in journal
  // probe records — the campaign passes the cell label.
  BackendFactory* backend_factory = nullptr;
  std::string backend_context;
};

// Connection-count caps of the scaled-down verbs program
// validate_functional builds.
inline constexpr int kFunctionalMaxQps = 8;
inline constexpr int kFunctionalMaxMrs = 8;

class Engine {
 public:
  explicit Engine(const sim::Subsystem& sys, EngineOptions opts = {});
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;

  const sim::Subsystem& subsystem() const { return sys_; }
  const Backend& backend() const { return *backend_; }

  // Run one experiment.  The workload must be valid.  The scratch overload
  // reuses the caller's evaluation buffers across probes (the search
  // drivers own one scratch per run); the plain overload allocates fresh
  // scratch per call.  A scratch must not be shared across threads.
  Measurement run(const Workload& w, Rng& rng) const;
  Measurement run(const Workload& w, Rng& rng,
                  sim::EvalScratch& scratch) const;
  // In-place overload: resets and refills the caller's Measurement, keeping
  // its samples capacity and note-string buffer, so a driver that
  // reuses one Measurement across probes allocates nothing in steady state
  // (the returned reference is `out` itself).  The by-value overloads
  // delegate here.  `request` is stored on `out` (Measurement::request):
  // every counter it names, and the verdict of a monitor whose pause rule a
  // verdict-only request carries, equal a full measurement's from the same
  // Rng draws.  The search driver sets it from the probe's role
  // (sim::EvalRequest); the default is the full measurement.
  const Measurement& run(const Workload& w, Rng& rng,
                         sim::EvalScratch& scratch, Measurement& out,
                         const sim::EvalRequest& request = {}) const;

  // The functional verbs pass (never run by Engine::run): returns false
  // with a reason if the workload cannot be expressed as a legal verbs
  // program or data verification fails.  It instantiates at most
  // kFunctionalMaxQps QPs and kFunctionalMaxMrs MRs per QP.
  bool validate_functional(const Workload& w, std::string* error) const;

 private:
  sim::Subsystem sys_;
  EngineOptions opts_;
  std::unique_ptr<Backend> backend_;
  // Direct-call fast path: non-null iff the backend is the (final)
  // SimBackend.
  SimBackend* sim_ = nullptr;
  // "engine.backend.<kind>" probe counter, registered at construction so
  // the per-probe bump never touches the registration mutex.  Only valid
  // when telemetry is enabled.
  obs::CounterId backend_probes_;
};

}  // namespace collie::workload
