#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "orchestrator/journal.h"
#include "orchestrator/scheduler.h"

namespace campbench {

using namespace collie;
using namespace collie::orchestrator;

// ---- Order statistics --------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"), n = 4, in exact integer steps.
  const i64 ld = static_cast<i64>(values.size());
  const i64 m = ld + 1;
  double q[3];
  for (i64 i = 1; i < 4; ++i) {
    const i64 j = std::clamp<i64>(i * m / 4, 1, ld - 1);
    const i64 delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

double iqr_share(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const Quartiles q = quartiles(values);
  return q.median != 0.0 ? (q.q3 - q.q1) / q.median : 0.0;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

u64 steady_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// ---- Layer trace -------------------------------------------------------------

void LayerTrace::begin_cell() {
  have_last_probe_ = false;
  pending_ = false;
}

void LayerTrace::inner_probe(u64 start, u64 end, bool remeasured) {
  const u64 d = end - start;
  ++probes_;
  if (remeasured) ++remeasured_;
  measure_ns_ += d;
  measure_us_.push_back(static_cast<double>(d) / 1e3);
  last_inner_ns_ = d;
  if (!has_outer_) probe_event(start, end);
}

void LayerTrace::outer_probe(u64 start, u64 end) {
  const u64 d = end - start;
  const u64 own = d > last_inner_ns_ ? d - last_inner_ns_ : 0;
  journal_ns_ += own;
  journal_probe_us_.push_back(static_cast<double>(own) / 1e3);
  probe_event(start, end);
}

void LayerTrace::probe_event(u64 start, u64 end) {
  if (have_last_probe_) {
    interval_us_.push_back(static_cast<double>(start - last_probe_start_) / 1e3);
  }
  last_probe_start_ = start;
  have_last_probe_ = true;
  if (pending_) {
    ++pending_probes_;
    pending_child_ns_ += end - start;
  }
}

void LayerTrace::covers(u64 start, u64 end, bool hit) {
  const u64 d = end - start;
  ++covers_calls_;
  if (hit) ++covers_hits_;
  covers_ns_sum_ += d;
  covers_ns_.push_back(static_cast<double>(d));
  // Every covers() opens a new extraction candidate; only an insert()
  // closes one into an extraction (a later covers() discards it: those
  // backend calls were ordinary search steps).
  pending_ = true;
  pending_start_ = end;
  pending_probes_ = 0;
  pending_child_ns_ = 0;
}

void LayerTrace::insert(u64 start, u64 end) {
  const u64 d = end - start;
  insert_ns_ += d;
  insert_us_.push_back(static_cast<double>(d) / 1e3);
  if (!pending_) {
    ++unmatched_inserts_;
    return;
  }
  const u64 window = start - pending_start_;
  ++extractions_;
  necessity_probes_ += pending_probes_;
  extract_ms_.push_back(static_cast<double>(window) / 1e6);
  extract_self_ns_ += window - std::min(window, pending_child_ns_);
  pending_ = false;
}

double LayerTrace::unattributed_ns() const {
  const u64 attributed = measure_ns_ + covers_ns_sum_ + extract_self_ns_ +
                         insert_ns_ + report_ns_ + journal_ns_;
  return static_cast<double>(window_ns_) - static_cast<double>(attributed);
}

// ---- Timing seams -----------------------------------------------------------

namespace {

class TimingBackend final : public workload::Backend {
 public:
  TimingBackend(std::unique_ptr<workload::Backend> inner, LayerTrace* trace,
                ProbeRole role)
      : inner_(std::move(inner)), trace_(trace), role_(role) {}

  // A decorator is never the final SimBackend the engine devirtualizes to;
  // like SpliceBackend it reports the transport kind and forwards the
  // substrate.
  workload::BackendKind kind() const override {
    return workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override { return inner_->substrate(); }

  void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
               workload::Measurement& out) override {
    const u64 start = trace_->now();
    inner_->measure(w, rng, scratch, out);
    const u64 end = trace_->now();
    if (role_ == ProbeRole::kInner) {
      trace_->inner_probe(start, end, out.remeasure_count > 0);
    } else {
      trace_->outer_probe(start, end);
    }
  }

 private:
  std::unique_ptr<workload::Backend> inner_;
  LayerTrace* trace_;
  ProbeRole role_;
};

}  // namespace

TimingBackendFactory::TimingBackendFactory(
    std::shared_ptr<workload::BackendFactory> inner, LayerTrace* trace,
    ProbeRole role)
    : inner_(std::move(inner)), trace_(trace), role_(role) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("TimingBackendFactory needs an inner factory");
  }
  if (role_ == ProbeRole::kOuter) trace_->set_has_outer(true);
}

std::unique_ptr<workload::Backend> TimingBackendFactory::create(
    const sim::Subsystem& sys, const workload::EngineOptions& opts,
    const std::string& context) {
  return std::make_unique<TimingBackend>(inner_->create(sys, opts, context),
                                         trace_, role_);
}

bool TimingStore::covers(const core::SearchSpace& space, const Workload& w) {
  const u64 start = trace_->now();
  const bool hit = inner_.covers(space, w);
  trace_->covers(start, trace_->now(), hit);
  return hit;
}

int TimingStore::insert(const core::SearchSpace& space, core::Mfs mfs) {
  const u64 start = trace_->now();
  const int index = inner_.insert(space, std::move(mfs));
  trace_->insert(start, trace_->now());
  return index;
}

// ---- Traced executor -----------------------------------------------------------

CampaignResult run_traced_campaign(const CampaignConfig& raw_config,
                                   LayerTrace* trace) {
  const Campaign planner(raw_config);  // normalizes the config, like run()
  const CampaignConfig& config = planner.config();
  if (config.warm_start || config.replay || config.resume != nullptr) {
    throw std::invalid_argument(
        "run_traced_campaign runs fresh campaigns only");
  }
  const std::vector<CampaignCell> cells = planner.plan();
  const std::vector<bool> runnable = runnable_cells(config, cells);
  const Schedule schedule = plan_schedule(config, cells, runnable);
  std::vector<double> budgets;
  std::vector<std::string> labels;
  for (const CampaignCell& cell : cells) {
    budgets.push_back(cell.budget_seconds);
    labels.push_back(cell.label());
  }
  const Rng root(config.campaign_seed);

  CampaignJournal* journal = config.journal;
  if (journal != nullptr) {
    const u64 start = trace->now();
    journal->begin(to_string(config.share), to_string(config.strategy),
                   config.campaign_seed, schedule.workers,
                   config.backend_factory != nullptr
                       ? config.backend_factory->substrate()
                       : "sim",
                   schedule_to_json(schedule, labels, budgets));
    trace->add_journal(trace->now() - start);
  }

  ConcurrentMfsPool pool(config.pool);
  CampaignResult result;
  result.workers = schedule.workers;
  result.schedule = schedule;
  result.share = config.share;
  if (config.backend_factory != nullptr) {
    result.backend = config.backend_factory->substrate();
  }
  result.cells.resize(cells.size());
  for (CellResult& cr : result.cells) cr.backend = result.backend;

  const CellExecutionOptions opts = cell_execution_options(config);
  std::vector<double> timelines(static_cast<std::size_t>(schedule.workers), 0.0);
  const std::vector<int> worker_of = schedule.worker_of(cells.size());
  for (const std::size_t i : dispatch_order(schedule, budgets)) {
    const CampaignCell& cell = cells[i];
    const int w = worker_of[i];
    const std::string scope = cell.scope(config.share);
    ConcurrentMfsPool::View view = pool.view(scope, w);
    const Rng rng = root.split(cell.stream);
    const double start_seconds = timelines[static_cast<std::size_t>(w)];
    trace->begin_cell();
    CellResult cr;
    if (journal != nullptr) {
      JournalingStore journaling(view, journal, cell.label(), scope, w);
      TimingStore timed(journaling, trace);
      cr = execute_cell(opts, cell, w, start_seconds, rng, view, &timed);
      PoolStats delta;
      delta.entries = static_cast<i64>(journaling.inserts().size());
      delta.hits = view.hits();
      delta.cross_worker_hits = view.cross_worker_hits();
      delta.warm_hits = view.warm_hits();
      delta.duplicate_inserts = view.duplicate_inserts();
      const u64 start = trace->now();
      journal->cell_done(cr, journaling.inserts(), delta, cell.stream + 1);
      trace->add_journal(trace->now() - start);
    } else {
      TimingStore timed(view, trace);
      cr = execute_cell(opts, cell, w, start_seconds, rng, view, &timed);
    }
    timelines[static_cast<std::size_t>(w)] += cr.result.elapsed_seconds;
    result.cells[i] = std::move(cr);
  }

  std::vector<double> worker_elapsed(static_cast<std::size_t>(schedule.workers),
                                     0.0);
  for (const CellResult& cr : result.cells) {
    result.serial_seconds += cr.result.elapsed_seconds;
    if (cr.worker >= 0) {
      worker_elapsed[static_cast<std::size_t>(cr.worker)] +=
          cr.result.elapsed_seconds;
    }
  }
  for (const double t : worker_elapsed) {
    result.makespan_seconds = std::max(result.makespan_seconds, t);
  }
  result.pool = pool.stats();
  result.pool_scopes = pool.export_scopes();
  return result;
}

}  // namespace campbench
