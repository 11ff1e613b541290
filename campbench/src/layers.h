// Per-layer tracing for the campaign benchmark.
//
// Everything here sits outside the program: the benchmark reaches each
// layer through its public seam and times the calls from the outside.
//   * workload: a TimingBackendFactory wraps the substrate factory, so every
//     probe is seen, necessity probes included.  On a journaled campaign a
//     second (outer) timing factory wraps the SpliceBackendFactory; outer
//     minus inner time is the journal's per-probe cost.
//   * core / orchestrator: a TimingStore wraps the MfsStore each cell's
//     driver consults.  covers() is MatchMFS.  Backend calls after a covers()
//     and before the insert() that follows it are necessity probes, and that
//     window is MFS extraction.  insert() is the pool insert.
//   * run_traced_campaign replays Campaign::run's deterministic one-worker
//     path through the public execute_cell, so the TimingStore can be handed
//     to every cell.
//
// Self time is each layer's time minus the child calls inside it; the
// layers' self times plus the unattributed remainder add up to the traced
// window exactly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/mfs_store.h"
#include "orchestrator/campaign.h"
#include "workload/backend.h"

namespace campbench {

using collie::i64;
using collie::u64;

// ---- Order statistics --------------------------------------------------------

// Linear interpolation between closest ranks over the sorted values
// (p in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> values, double p);

// Quartiles with the "exclusive" method of Python's
// statistics.quantiles(values, n=4); needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

// Interquartile distance as a share of the median (0 for < 2 values).
double iqr_share(const std::vector<double>& values);

double median(std::vector<double> values);

// ---- Layer trace -------------------------------------------------------------

// Nanosecond clock; injectable so the self-tests can script time.
using Clock = u64 (*)();
u64 steady_ns();

class LayerTrace {
 public:
  explicit LayerTrace(Clock clock = steady_ns) : clock_(clock) {}

  u64 now() const { return clock_(); }

  // A cell starts: resets the probe-interval and extraction bookkeeping.
  void begin_cell();

  // Timing backends report here.  `inner` calls wrap the substrate (the
  // workload layer); `outer` calls wrap the journal's splice backend around
  // it and arrive after the inner call they enclose.
  void set_has_outer(bool has_outer) { has_outer_ = has_outer; }
  void inner_probe(u64 start, u64 end, bool remeasured);
  void outer_probe(u64 start, u64 end);

  // The timing store reports here.
  void covers(u64 start, u64 end, bool hit);
  void insert(u64 start, u64 end);

  // Directly timed calls made by the traced executor.
  void add_report(u64 ns) { report_ns_ += ns; report_ms_.push_back(ns / 1e6); }
  void add_journal(u64 ns) { journal_ns_ += ns; }
  void add_window(u64 ns) { window_ns_ += ns; }

  // ---- Results ----
  i64 probes() const { return probes_; }
  i64 remeasured() const { return remeasured_; }
  i64 covers_calls() const { return covers_calls_; }
  i64 covers_hits() const { return covers_hits_; }
  i64 extractions() const { return extractions_; }
  i64 necessity_probes() const { return necessity_probes_; }
  i64 unmatched_inserts() const { return unmatched_inserts_; }

  const std::vector<double>& measure_us() const { return measure_us_; }
  const std::vector<double>& covers_ns() const { return covers_ns_; }
  const std::vector<double>& extract_ms() const { return extract_ms_; }
  const std::vector<double>& insert_us() const { return insert_us_; }
  const std::vector<double>& journal_probe_us() const {
    return journal_probe_us_;
  }
  const std::vector<double>& interval_us() const { return interval_us_; }
  const std::vector<double>& report_ms() const { return report_ms_; }

  // Self time per layer, in ns.
  u64 window_ns() const { return window_ns_; }
  u64 measure_ns() const { return measure_ns_; }
  u64 covers_self_ns() const { return covers_ns_sum_; }
  u64 extract_self_ns() const { return extract_self_ns_; }
  u64 insert_ns() const { return insert_ns_; }
  u64 report_ns() const { return report_ns_; }
  u64 journal_ns() const { return journal_ns_; }
  // window - every attributed self time (may be negative on a clock that
  // runs backwards between layers; never with steady_ns).
  double unattributed_ns() const;

 private:
  Clock clock_;
  bool has_outer_ = false;

  i64 probes_ = 0;
  i64 remeasured_ = 0;
  i64 covers_calls_ = 0;
  i64 covers_hits_ = 0;
  i64 extractions_ = 0;
  i64 necessity_probes_ = 0;
  i64 unmatched_inserts_ = 0;

  std::vector<double> measure_us_;
  std::vector<double> covers_ns_;
  std::vector<double> extract_ms_;
  std::vector<double> insert_us_;
  std::vector<double> journal_probe_us_;
  std::vector<double> interval_us_;
  std::vector<double> report_ms_;

  u64 window_ns_ = 0;
  u64 measure_ns_ = 0;
  u64 covers_ns_sum_ = 0;
  u64 extract_self_ns_ = 0;
  u64 insert_ns_ = 0;
  u64 report_ns_ = 0;
  u64 journal_ns_ = 0;

  // Duration of the most recent inner call (consumed by the enclosing outer
  // call on journaled campaigns).
  u64 last_inner_ns_ = 0;
  // Start of the previous probe of the current cell, when there is one.
  u64 last_probe_start_ = 0;
  bool have_last_probe_ = false;
  // Open extraction candidate: the window since the last covers() returned.
  bool pending_ = false;
  u64 pending_start_ = 0;
  i64 pending_probes_ = 0;
  u64 pending_child_ns_ = 0;

  void probe_event(u64 start, u64 end);
};

// ---- Timing seams -----------------------------------------------------------

enum class ProbeRole { kInner, kOuter };

// Wraps every backend `inner` creates; reports each measure() to `trace`.
class TimingBackendFactory final : public collie::workload::BackendFactory {
 public:
  TimingBackendFactory(std::shared_ptr<collie::workload::BackendFactory> inner,
                       LayerTrace* trace, ProbeRole role);

  // kTrace, like SpliceBackendFactory: a decorator must not pass for the
  // final SimBackend the engine devirtualizes to.
  collie::workload::BackendKind kind() const override {
    return collie::workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override { return inner_->substrate(); }
  std::unique_ptr<collie::workload::Backend> create(
      const collie::sim::Subsystem& sys,
      const collie::workload::EngineOptions& opts,
      const std::string& context) override;

 private:
  std::shared_ptr<collie::workload::BackendFactory> inner_;
  LayerTrace* trace_;
  ProbeRole role_;
};

// MfsStore decorator reporting covers() and insert() to `trace`.
class TimingStore final : public collie::core::MfsStore {
 public:
  TimingStore(collie::core::MfsStore& inner, LayerTrace* trace)
      : inner_(inner), trace_(trace) {}

  bool covers(const collie::core::SearchSpace& space,
              const collie::Workload& w) override;
  bool covers_preloaded(const collie::core::SearchSpace& space,
                        const collie::Workload& w) override {
    return inner_.covers_preloaded(space, w);
  }
  int insert(const collie::core::SearchSpace& space,
             collie::core::Mfs mfs) override;
  std::size_t size() const override { return inner_.size(); }
  std::vector<collie::core::Mfs> snapshot() const override {
    return inner_.snapshot();
  }

 private:
  collie::core::MfsStore& inner_;
  LayerTrace* trace_;
};

// Campaign::run's deterministic path for a fresh campaign (no warm start,
// replay or resume), with a TimingStore around every cell's pool view and a
// timed journal begin / cell_done.  `config.backend_factory` should already
// carry the timing factories.  The result is identical to Campaign::run's.
collie::orchestrator::CampaignResult run_traced_campaign(
    const collie::orchestrator::CampaignConfig& config, LayerTrace* trace);

}  // namespace campbench
