#include "orchestrator/campaign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/log.h"
#include "orchestrator/journal.h"
#include "sim/subsystem.h"
#include "workload/backend.h"

namespace collie::orchestrator {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kSimulatedAnnealing:
      return "sa";
    case Strategy::kRandom:
      return "random";
  }
  return "?";
}

const char* to_string(ShareScope s) {
  switch (s) {
    case ShareScope::kCell:
      return "cell";
    case ShareScope::kSubsystem:
      return "subsystem";
  }
  return "?";
}

std::string CampaignCell::subsystem_label() const {
  // The default pair + CC-off keeps the seed's plain-subsystem labels and
  // scopes.
  std::string out(1, subsystem);
  if (fabric != "pair") out += "@" + fabric;
  if (cc != "off") out += "+" + cc;
  return out;
}

std::string CampaignCell::scope(ShareScope share) const {
  // MFS conditions only transfer within one (subsystem, fabric, cc) space,
  // so even the widest sharing scope carries both scenarios.
  if (share == ShareScope::kSubsystem) return subsystem_label();
  return label();
}

std::string CampaignCell::label() const {
  return subsystem_label() + "/" + core::to_string(mode) + "#" +
         std::to_string(seed_ordinal);
}

sim::Subsystem CampaignCell::materialize() const {
  return sim::with_cc(sim::with_fabric(sim::subsystem(subsystem),
                                       net::fabric_scenario(fabric)),
                      nic::cc_scenario(cc));
}

namespace {

// The first entry that repeats an earlier one, or null.  Compares in place:
// a grid holds a handful of entries, and building labels would allocate on
// every campaign's setup path.
template <typename T>
const T* first_duplicate(const std::vector<T>& entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (entries[j] == entries[i]) return &entries[i];
    }
  }
  return nullptr;
}

// A repeated grid entry plans cells with the same label, which the
// journal, checkpoints and the report all use as the cell's identity.  Out
// of line, so the constructor (campaign setup, an end-to-end benchmark
// metric) carries none of the error-message code.
[[gnu::noinline]] void reject_duplicate_entries(const CampaignConfig& config) {
  const auto reject = [](const char* what, const std::string& entry) {
    throw std::invalid_argument(std::string("duplicate ") + what + " '" +
                                entry + "' in the campaign grid");
  };
  if (const char* sys = first_duplicate(config.subsystems)) {
    reject("subsystem", std::string(1, *sys));
  }
  if (const std::string* fabric = first_duplicate(config.fabrics)) {
    reject("fabric scenario", *fabric);
  }
  if (const std::string* cc = first_duplicate(config.ccs)) {
    reject("cc scenario", *cc);
  }
  if (const core::GuidanceMode* mode = first_duplicate(config.modes)) {
    reject("mode", core::to_string(*mode));
  }
}

}  // namespace

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {
  reject_duplicate_entries(config_);
  if (config_.subsystems.empty()) {
    config_.subsystems = sim::all_subsystem_ids();
  }
  if (config_.fabrics.empty()) config_.fabrics = {"pair"};
  for (const std::string& fabric : config_.fabrics) {
    net::fabric_scenario(fabric);  // throws on an unknown scenario name
  }
  if (config_.ccs.empty()) config_.ccs = {"off"};
  for (const std::string& cc : config_.ccs) {
    nic::cc_scenario(cc);  // throws on an unknown scenario name
  }
  if (config_.workers < 1) {
    throw std::invalid_argument("a campaign needs at least one worker");
  }
  if (config_.seeds_per_cell < 1) {
    throw std::invalid_argument("a campaign needs at least one seed per cell");
  }
  // A budget the search can exhaust: NaN slips past a `<= 0` test and an
  // infinite one never runs out.
  const auto exhaustible = [](double s) { return std::isfinite(s) && s > 0.0; };
  if (!exhaustible(config_.budget.seconds)) {
    throw std::invalid_argument("the cell budget must be positive and finite");
  }
  for (const double seconds : config_.budget_cycle_seconds) {
    if (!exhaustible(seconds)) {
      throw std::invalid_argument(
          "budget cycle entries must be positive and finite");
    }
  }
}

std::vector<CampaignCell> Campaign::plan() const {
  std::vector<CampaignCell> cells;
  // Subsystem-major order interleaves same-subsystem cells across adjacent
  // workers under round-robin assignment, maximising concurrent sharing.
  for (const char sys : config_.subsystems) {
    for (const std::string& fabric : config_.fabrics) {
      for (const std::string& cc : config_.ccs) {
        for (const core::GuidanceMode mode : config_.modes) {
          for (int seed = 0; seed < config_.seeds_per_cell; ++seed) {
            CampaignCell cell;
            cell.subsystem = sys;
            cell.fabric = fabric;
            cell.cc = cc;
            cell.mode = mode;
            cell.seed_ordinal = seed;
            cell.stream = static_cast<u64>(cells.size());
            cell.budget_seconds =
                config_.budget_cycle_seconds.empty()
                    ? config_.budget.seconds
                    : config_.budget_cycle_seconds[cells.size() %
                          config_.budget_cycle_seconds.size()];
            cells.push_back(cell);
          }
        }
      }
    }
  }
  return cells;
}

CellExecutionOptions cell_execution_options(const CampaignConfig& config) {
  CellExecutionOptions opts;
  opts.strategy = config.strategy;
  opts.share = config.share;
  opts.budget = config.budget;
  opts.engine = config.engine;
  opts.backend_factory = config.backend_factory.get();
  opts.telemetry = config.telemetry;
  return opts;
}

CellResult execute_cell(const CellExecutionOptions& opts,
                        const CampaignCell& cell, int worker,
                        double start_seconds, Rng rng,
                        ConcurrentMfsPool::View& view,
                        core::MfsStore* store) {
  CellResult cr;
  cr.cell = cell;
  cr.worker = worker;
  cr.start_seconds = start_seconds;
  if (opts.backend_factory != nullptr) {
    cr.backend = opts.backend_factory->substrate();
  }
  if (store == nullptr) store = &view;
  // A cell that throws (bad catalog id, scenario materialization failure,
  // engine error) must not take the worker thread — and with it the whole
  // fleet — down.  It is recorded as failed; the report counts it
  // separately from covered cells.
  try {
    const sim::Subsystem sys = cell.materialize();
    workload::EngineOptions engine_opts = opts.engine;
    // Nothing in the campaign reads per-epoch series; skipping them keeps
    // the probe loop free of per-experiment work and allocations.
    // Verdicts, traces and RNG streams are unaffected.
    engine_opts.sim.keep_epochs = false;
    engine_opts.telemetry = obs::ProbeTelemetry(opts.telemetry, worker);
    engine_opts.backend_factory = opts.backend_factory;
    engine_opts.backend_context = cell.label();
    const workload::Engine engine(sys, engine_opts);
    const core::SearchSpace space(sys);
    core::SearchDriver driver(engine, space);
    driver.set_telemetry(obs::ProbeTelemetry(opts.telemetry, worker));
    core::SearchBudget budget = opts.budget;
    budget.seconds = cell.budget_seconds;

    if (opts.strategy == Strategy::kSimulatedAnnealing) {
      core::SaConfig sa;
      sa.mode = cell.mode;
      cr.result = driver.run_simulated_annealing(sa, budget, rng, *store);
    } else {
      cr.result = driver.run_random(budget, rng, *store);
    }
    cr.cross_worker_skips = view.cross_worker_hits();
    cr.warm_start_skips = view.warm_hits();
  } catch (const std::exception& e) {
    cr.error = e.what();
    LOG_WARN << "worker " << worker << " cell " << cell.label()
             << " failed: " << cr.error;
    return cr;
  }
  LOG_DEBUG << "worker " << worker << " finished cell " << cell.label()
            << ": " << cr.result.found.size() << " anomalies, "
            << cr.result.mfs_skips << " skips (" << cr.cross_worker_skips
            << " cross-worker)";
  return cr;
}

void Campaign::run_cell(int worker, const CampaignCell& cell, Rng rng,
                        bool restored, ConcurrentMfsPool& pool,
                        CellResult& out) {
  obs::Telemetry* tel = config_.telemetry;
  if (restored) {
    // The cell ran to completion before the crash: start_campaign restored
    // its journaled result and pool inserts.
    if (tel != nullptr) {
      tel->registry().add(worker,
                          out.failed() ? cells_failed_ : cells_completed_);
    }
    return;
  }
  const u64 wall_start = tel != nullptr ? obs::now_ticks() : 0;
  const std::string scope = cell.scope(config_.share);
  ConcurrentMfsPool::View view = pool.view(scope, worker);
  if (config_.journal != nullptr) {
    JournalingStore store(view, config_.journal, cell.label(), scope, worker);
    out = execute_cell(cell_execution_options(config_), cell, worker, 0.0,
                       rng, view, &store);
    PoolStats delta;
    delta.entries = static_cast<i64>(store.inserts().size());
    delta.hits = view.hits();
    delta.cross_worker_hits = view.cross_worker_hits();
    delta.warm_hits = view.warm_hits();
    delta.duplicate_inserts = view.duplicate_inserts();
    // Lease ids start at 1; in-process campaigns use plan index + 1 (the
    // cell's rng stream index is its plan position).
    config_.journal->cell_done(out, store.inserts(), delta, cell.stream + 1);
  } else {
    out = execute_cell(cell_execution_options(config_), cell, worker, 0.0,
                       rng, view);
  }
  if (tel != nullptr) {
    obs::Registry& reg = tel->registry();
    reg.add(worker, out.failed() ? cells_failed_ : cells_completed_);
    if (worker >= 0 && worker < static_cast<int>(worker_ids_.size())) {
      reg.add(worker, worker_ids_[static_cast<std::size_t>(worker)].busy_ns,
              static_cast<i64>(obs::now_ticks() - wall_start));
    }
  }
}

void Campaign::setup_telemetry(const Schedule& schedule, i64 skipped_cells) {
  obs::Telemetry* tel = config_.telemetry;
  if (tel == nullptr) return;
  obs::Registry& reg = tel->registry();
  cells_completed_ = reg.counter("campaign.cells_completed");
  cells_failed_ = reg.counter("campaign.cells_failed");
  cells_skipped_ = reg.counter("campaign.cells_skipped");
  if (skipped_cells > 0) reg.add(0, cells_skipped_, skipped_cells);
  worker_ids_.clear();
  const int named = std::min(schedule.workers, kMaxWorkerInstruments);
  for (int w = 0; w < named; ++w) {
    WorkerIds ids;
    ids.busy_ns =
        reg.counter("campaign.worker." + std::to_string(w) + ".busy_ns");
    ids.queue_depth =
        reg.gauge("campaign.worker." + std::to_string(w) + ".queue_depth");
    worker_ids_.push_back(ids);
  }
  for (std::size_t w = 0;
       w < schedule.queues.size() && w < worker_ids_.size(); ++w) {
    reg.gauge_set(static_cast<int>(w), worker_ids_[w].queue_depth,
                  static_cast<i64>(schedule.queues[w].size()));
  }
}

void Campaign::note_cell_drained(int worker) {
  obs::Telemetry* tel = config_.telemetry;
  if (tel == nullptr || worker < 0 ||
      worker >= static_cast<int>(worker_ids_.size())) {
    return;
  }
  tel->registry().gauge_add(
      worker, worker_ids_[static_cast<std::size_t>(worker)].queue_depth, -1);
}

namespace {

void validate_replay(const Schedule& schedule,
                     const std::vector<CampaignCell>& cells,
                     const std::vector<bool>& runnable) {
  std::vector<bool> seen(cells.size(), false);
  for (std::size_t w = 0; w < schedule.queues.size(); ++w) {
    for (std::size_t qi = 0; qi < schedule.queues[w].size(); ++qi) {
      const std::size_t i = schedule.queues[w][qi];
      if (i >= cells.size()) {
        throw std::invalid_argument(
            "replay schedule references cell index " + std::to_string(i) +
            " outside the plan");
      }
      if (seen[i]) {
        throw std::invalid_argument("replay schedule runs cell " +
                                    cells[i].label() + " twice");
      }
      seen[i] = true;
      if (!runnable[i]) {
        throw std::invalid_argument(
            "replay schedule runs warm-start-completed cell " +
            cells[i].label());
      }
      if (w < schedule.labels.size() && qi < schedule.labels[w].size() &&
          !schedule.labels[w][qi].empty() &&
          schedule.labels[w][qi] != cells[i].label()) {
        throw std::invalid_argument(
            "replay schedule was recorded against a different plan: cell " +
            std::to_string(i) + " is " + cells[i].label() + ", recorded as " +
            schedule.labels[w][qi]);
      }
      // A recording under different --hours would re-dispatch silently:
      // same labels, different budgets, different timelines and results.
      if (w < schedule.budgets.size() && qi < schedule.budgets[w].size() &&
          schedule.budgets[w][qi] > 0.0 &&
          schedule.budgets[w][qi] != cells[i].budget_seconds) {
        throw std::invalid_argument(
            "replay schedule was recorded under different budgets: cell " +
            cells[i].label() + " now has " +
            std::to_string(cells[i].budget_seconds) + " s, recorded with " +
            std::to_string(schedule.budgets[w][qi]) + " s");
      }
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (runnable[i] && !seen[i]) {
      throw std::invalid_argument("replay schedule never runs cell " +
                                  cells[i].label());
    }
  }
}

}  // namespace

std::vector<bool> runnable_cells(const CampaignConfig& config,
                                 const std::vector<CampaignCell>& cells) {
  // Warm start: cells the checkpoint records as completed never run.
  std::vector<bool> runnable(cells.size(), true);
  if (config.warm_start) {
    // Scope keys only mean anything under the sharing policy they were
    // formed with; loading cell-scoped entries into a subsystem-share
    // campaign would park them under keys no view queries.
    if (config.warm_start->share != to_string(config.share)) {
      throw std::invalid_argument(
          "warm-start checkpoint was taken under --share " +
          config.warm_start->share + ", this campaign uses --share " +
          to_string(config.share));
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (config.warm_start->completed(cells[i].label())) {
        runnable[i] = false;
      }
    }
  }
  return runnable;
}

Schedule plan_schedule(const CampaignConfig& config,
                       const std::vector<CampaignCell>& cells,
                       const std::vector<bool>& runnable) {
  std::vector<double> budgets;
  budgets.reserve(cells.size());
  for (const CampaignCell& cell : cells) budgets.push_back(cell.budget_seconds);

  // The schedule: replayed (and validated against this plan), or computed
  // from the policy.  Budgets stand in for durations — searches run to
  // their wall budget, so the virtual-time assignment matches reality.
  Schedule schedule;
  if (config.replay) {
    schedule = *config.replay;
    validate_replay(schedule, cells, runnable);
  } else if (config.schedule == SchedulePolicy::kLpt) {
    schedule = lpt_schedule(budgets, runnable, config.workers);
  } else {
    schedule = round_robin_schedule(runnable, config.workers);
  }
  return schedule;
}

std::vector<std::vector<std::size_t>> scope_chains(
    const std::vector<CampaignCell>& cells,
    const std::vector<std::size_t>& order, ShareScope share) {
  std::vector<std::vector<std::size_t>> chains;
  std::map<std::string, std::size_t> chain_of;
  for (const std::size_t i : order) {
    const auto [it, fresh] =
        chain_of.emplace(cells[i].scope(share), chains.size());
    if (fresh) chains.emplace_back();
    chains[it->second].push_back(i);
  }
  return chains;
}

CampaignStart start_campaign(const CampaignConfig& config,
                             const std::vector<CampaignCell>& cells,
                             ConcurrentMfsPool& pool) {
  const std::vector<bool> runnable = runnable_cells(config, cells);
  CampaignStart start;
  CampaignResult& result = start.result;
  result.schedule = plan_schedule(config, cells, runnable);
  result.workers = result.schedule.workers;
  result.share = config.share;
  if (config.backend_factory != nullptr) {
    result.backend = config.backend_factory->substrate();
  }
  result.cells.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // Default attribution (skipped/failed cells never construct an engine).
    result.cells[i].backend = result.backend;
    if (!runnable[i]) {
      result.cells[i].cell = cells[i];
      result.cells[i].skipped = true;
    }
  }

  if (config.journal != nullptr) {
    if (config.resume != nullptr) {
      // Append-only across crashes: a resumed session appends a boundary
      // marker, never a second begin.
      config.journal->resume_marker();
    } else {
      std::vector<std::string> labels;
      std::vector<double> budgets;
      labels.reserve(cells.size());
      budgets.reserve(cells.size());
      for (const CampaignCell& cell : cells) {
        labels.push_back(cell.label());
        budgets.push_back(cell.budget_seconds);
      }
      config.journal->begin(to_string(config.share),
                            to_string(config.strategy), config.campaign_seed,
                            result.workers, result.backend,
                            schedule_to_json(result.schedule, labels, budgets));
    }
  }

  pool.set_telemetry(config.telemetry);
  if (config.warm_start) {
    for (const auto& [scope, entries] : config.warm_start->scopes) {
      pool.load_scope(scope, entries);
    }
  }
  start.restored.assign(cells.size(), false);
  if (config.resume != nullptr) {
    // Refill the pool with every completed cell's inserts, origin-preserved
    // and folded in completion order — the same order the original run
    // inserted them, so re-running cells observe identical MFS positions
    // and hit attribution.  Loaded after warm-start scopes, like live
    // inserts.  Plan-side cell identity wins over the journaled copy.
    std::map<std::string, std::size_t> by_label;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      by_label[cells[i].label()] = i;
    }
    for (const std::string& label : config.resume->completion_order) {
      const auto it = by_label.find(label);
      if (it == by_label.end()) {
        throw std::invalid_argument(
            "journal records completed cell " + label +
            " which is not in this campaign's plan (journal was recorded "
            "against a different plan?)");
      }
      const std::size_t i = it->second;
      const RestoredCell& rc = config.resume->completed.at(label);
      pool.load_entries(cells[i].scope(config.share), rc.inserts);
      if (runnable[i]) {
        result.cells[i] = rc.result;
        result.cells[i].cell = cells[i];
        start.restored[i] = true;
      }
    }
  }
  return start;
}

void finish_campaign(const CampaignConfig& config,
                     const ConcurrentMfsPool& pool,
                     const PoolStats& live_delta, CampaignResult& result) {
  // Each logical worker runs its queue back to back on its own simulated
  // timeline, whichever thread or fleet executor ran the cells.
  for (std::size_t w = 0; w < result.schedule.queues.size(); ++w) {
    double timeline = 0.0;
    for (const std::size_t i : result.schedule.queues[w]) {
      CellResult& cr = result.cells[i];
      cr.worker = static_cast<int>(w);
      cr.start_seconds = timeline;
      timeline += cr.result.elapsed_seconds;
    }
  }
  std::vector<double> worker_elapsed(static_cast<std::size_t>(result.workers),
                                     0.0);
  for (const CellResult& cr : result.cells) {
    result.serial_seconds += cr.result.elapsed_seconds;
    if (cr.worker >= 0 && cr.worker < result.workers) {
      worker_elapsed[static_cast<std::size_t>(cr.worker)] +=
          cr.result.elapsed_seconds;
    }
  }
  for (const double t : worker_elapsed) {
    if (t > result.makespan_seconds) result.makespan_seconds = t;
  }
  // Entry counts are the pool's contents, restored inserts included.  Hit
  // counters are live-session counters: restored cells served their hits
  // before the crash, so their journaled deltas fold back in, and so do
  // the observations of searches `pool` never served.
  result.pool = pool.stats();
  if (config.resume != nullptr) {
    for (const auto& [label, rc] : config.resume->completed) {
      result.pool.add_observations(rc.delta);
    }
  }
  result.pool.add_observations(live_delta);
  result.pool_scopes = pool.export_scopes();
}

CampaignResult Campaign::run() {
  const std::vector<CampaignCell> cells = plan();
  ConcurrentMfsPool pool;
  CampaignStart start = start_campaign(config_, cells, pool);
  CampaignResult& result = start.result;
  const Schedule& schedule = result.schedule;

  std::vector<double> budgets;
  budgets.reserve(cells.size());
  for (const CampaignCell& cell : cells) budgets.push_back(cell.budget_seconds);

  // Split every cell's stream off the campaign seed up front; the draw a
  // cell sees is a pure function of (campaign_seed, cell index).
  const Rng root(config_.campaign_seed);
  std::vector<Rng> streams;
  streams.reserve(cells.size());
  for (const CampaignCell& cell : cells) streams.push_back(root.split(cell.stream));

  i64 skipped_cells = 0;
  for (const CellResult& cr : result.cells) {
    if (cr.skipped) ++skipped_cells;
  }
  setup_telemetry(schedule, skipped_cells);

  const std::vector<std::size_t> order = dispatch_order(schedule, budgets);
  const std::vector<int> worker_of = schedule.worker_of(cells.size());
  const auto run_one = [&](std::size_t i) {
    run_cell(worker_of[i], cells[i], streams[i], start.restored[i], pool,
             result.cells[i]);
    note_cell_drained(worker_of[i]);
  };
  const std::vector<std::vector<std::size_t>> chains =
      scope_chains(cells, order, config_.share);
  // Physical threads: capped by the config, by the schedule's logical
  // workers and by the chains there are to pull.
  const int threads = std::min<int>(
      {config_.workers, schedule.workers, static_cast<int>(chains.size())});
  if (threads <= 1) {
    // The reference order.  For round-robin schedules with uniform budgets
    // this is exactly plan order (the seed behaviour).
    for (const std::size_t i : order) run_one(i);
  } else {
    std::atomic<std::size_t> next_chain{0};
    std::vector<std::thread> pool_threads;
    pool_threads.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool_threads.emplace_back([&] {
        for (std::size_t c = next_chain++; c < chains.size();
             c = next_chain++) {
          for (const std::size_t i : chains[c]) run_one(i);
        }
      });
    }
    for (std::thread& t : pool_threads) t.join();
  }

  finish_campaign(config_, pool, PoolStats{}, result);
  return std::move(result);
}

i64 CampaignResult::total_cross_worker_skips() const {
  i64 total = 0;
  for (const CellResult& cr : cells) total += cr.cross_worker_skips;
  return total;
}

}  // namespace collie::orchestrator
