// Recorded-trace execution backend: record every probe a campaign runs to a
// strict-JSON trace document ("collie-trace-v2"), then replay the trace
// offline — audit, CI equivalence checks, and regression triage without a
// single simulator evaluation on the replay leg.
//
// A trace is a set of *contexts* (one per engine, keyed by the campaign cell
// label), each an ordered probe sequence: the workload that was measured,
// the Measurement it produced, and the Rng state the substrate left behind.
// Replay is a cursor walk, not a key lookup: probe i of a context must
// match the i-th recorded workload exactly (duplicates stay unambiguous,
// and any trajectory divergence fails loudly at the first differing probe).
// Restoring the recorded Rng state is what keeps the *search* identical:
// the same generator feeds measurement jitter and SA decisions, so replayed
// probes must advance it exactly as the recording substrate did.
//
// Record and replay legs of the same campaign produce byte-identical
// reports: attribution is by substrate ("sim"), which the trace carries.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workload/backend.h"

namespace collie::core {
class JsonWriter;
class JsonValue;
}  // namespace collie::core

namespace collie::workload {

// One recorded probe of one context, in execution order.
struct TraceProbe {
  Workload workload;
  Measurement measurement;
  RngState rng_after;
};

// Hex RngState <-> JSON, the exact encoding collie-trace-v2 uses.  Shared
// with the campaign journal, whose probe records are trace probes.
void rng_state_to_json(const RngState& st, core::JsonWriter* json);
RngState rng_state_from_json(const core::JsonValue& v);

// A parsed/buildable collie-trace-v2 document.
struct TraceFile {
  std::string substrate = "sim";
  std::map<std::string, std::vector<TraceProbe>> contexts;

  // Strict JSON, contexts in sorted order, byte-identical round trip:
  // to_json(from_json(to_json())) == to_json().
  std::string to_json() const;
  // Throws core::JsonError on truncated/garbled documents or an unknown
  // schema.
  static TraceFile from_json(const std::string& text);
};

// Thread-safe probe sink shared by every cell of a recording campaign (one
// mutex acquisition per probe; recording is not a hot path).
class TraceRecorder {
 public:
  void record(const std::string& context, const Workload& w,
              const Measurement& m, const RngState& rng_after);

  // The document recorded so far (copies under the lock).
  TraceFile file() const;
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  TraceFile file_;
};

// Record mode: execute every probe on the inner backend (the substrate),
// then append it to the recorder.
class RecordBackend final : public Backend {
 public:
  RecordBackend(std::unique_ptr<Backend> inner,
                std::shared_ptr<TraceRecorder> recorder, std::string context);

  BackendKind kind() const override { return BackendKind::kTrace; }
  const std::string& substrate() const override {
    return inner_->substrate();
  }
  void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
               Measurement& out) override;

 private:
  std::unique_ptr<Backend> inner_;
  std::shared_ptr<TraceRecorder> recorder_;
  std::string context_;
};

// Replay mode: serve recorded measurements in sequence.  Never evaluates
// the simulator — by construction, not by flag: this class holds no
// scenario at all.  Throws std::runtime_error on the first divergence
// (missing context, exhausted sequence, workload mismatch).
class TraceBackend final : public Backend {
 public:
  TraceBackend(std::shared_ptr<const TraceFile> file, std::string context);

  BackendKind kind() const override { return BackendKind::kTrace; }
  const std::string& substrate() const override { return file_->substrate; }
  void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
               Measurement& out) override;

  std::size_t replayed() const { return cursor_; }

 private:
  std::shared_ptr<const TraceFile> file_;
  std::string context_;
  const std::vector<TraceProbe>* probes_ = nullptr;  // into *file_
  std::size_t cursor_ = 0;
};

// Factory for the record leg: wraps each cell's SimBackend and funnels every
// probe into the shared recorder.
class RecordBackendFactory final : public BackendFactory {
 public:
  explicit RecordBackendFactory(std::shared_ptr<TraceRecorder> recorder);

  BackendKind kind() const override { return BackendKind::kTrace; }
  const std::string& substrate() const override;
  std::unique_ptr<Backend> create(const sim::Subsystem& sys,
                                  const EngineOptions& opts,
                                  const std::string& context) override;

  const TraceRecorder& recorder() const { return *recorder_; }

 private:
  std::shared_ptr<TraceRecorder> recorder_;
};

// Factory for the replay leg: every cell gets a cursor over its recorded
// context.
class ReplayBackendFactory final : public BackendFactory {
 public:
  explicit ReplayBackendFactory(std::shared_ptr<const TraceFile> file);

  BackendKind kind() const override { return BackendKind::kTrace; }
  const std::string& substrate() const override { return file_->substrate; }
  std::unique_ptr<Backend> create(const sim::Subsystem& sys,
                                  const EngineOptions& opts,
                                  const std::string& context) override;

 private:
  std::shared_ptr<const TraceFile> file_;
};

}  // namespace collie::workload
