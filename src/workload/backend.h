// Execution backends: the seam between the workload engine and whatever
// actually runs a probe.
//
// The paper's Collie drives real NICs through libibverbs; this reproduction
// evaluates a performance model.  A Backend abstracts the substrate: the
// engine keeps the functional verbs pass (a workload must be a legal verbs
// program no matter what executes it) and delegates the *performance* pass —
// (Workload, Rng, scratch) -> Measurement — to its backend.  The simulator
// backend is the default and owns the scenario compilation the hot path
// depends on; the journal's splice backend (orchestrator/journal.h) serves
// journaled measurements on resume and offline replay; a mock backend
// returns scripted measurements for orchestrator tests.  A future
// hardware backend slots in here without touching the search stack.
//
// Determinism contract: one Rng feeds both measurement jitter and search
// decisions, so a backend must leave the Rng in exactly the state its
// recording substrate did.  SimBackend advances it through sim::evaluate;
// the splice backend restores the journaled post-probe state; MockBackend
// leaves it untouched (and must be replayed against MockBackend only).
#pragma once

#include <memory>
#include <string>

#include "common/rng.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"
#include "workload/engine.h"

namespace collie::workload {

enum class BackendKind {
  kSim,    // the performance model (default)
  kTrace,  // journaled probes: record, resume and replay
  kMock,   // scripted measurements for tests
};

const char* to_string(BackendKind k);

class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;

  // The substrate that produced (or produces) this backend's measurements:
  // "sim" for the simulator and for journals recorded from it, "mock" for
  // scripted ones.  Reports attribute results to the substrate, never the
  // transport — a replayed sim journal must be byte-identical to its
  // recording, including attribution.
  virtual const std::string& substrate() const = 0;

  // The performance pass: fill `out` for one experiment.  `out` arrives
  // reset by the engine with cost_seconds preset to the cost model's value
  // and the caller's request in out.request; a backend may overwrite any
  // field.  A decorator forwards `out` to its inner backend as is, and with
  // it the request.  The request may be ignored, but a backend that honours
  // it must leave every counter it names, the monitor's verdict (under the
  // rule of a verdict-only request) and the Rng exactly as a full
  // measurement would (SimBackend passes it to sim::evaluate).
  // Implementations must honour the Rng contract above.
  // Thread-compatibility matches the engine's: one (scratch, out) pair per
  // thread.
  virtual void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
                       Measurement& out) = 0;
};

// Creates one Backend per Engine.  The engine options carry a non-owning
// factory pointer (the campaign owns the factory for the whole run and
// builds one engine per cell); `context` names the engine's probe stream —
// the campaign passes the cell label — so journal probe records keep
// per-cell probe sequences apart.
class BackendFactory {
 public:
  virtual ~BackendFactory() = default;

  virtual BackendKind kind() const = 0;

  // Substrate label of every backend this factory creates (available
  // without creating one; the campaign stamps it on reports even when all
  // cells were skipped).
  virtual const std::string& substrate() const = 0;

  virtual std::unique_ptr<Backend> create(const sim::Subsystem& sys,
                                          const EngineOptions& opts,
                                          const std::string& context) = 0;
};

}  // namespace collie::workload
