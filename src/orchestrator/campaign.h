// Parallel search-campaign orchestrator.
//
// The paper's headline results come from independent 10-hour searches run
// one per testbed subsystem.  A Campaign runs that grid as a fleet: the
// (subsystem x guidance-mode x seed) cells fan out over a configurable
// number of worker threads, every cell drives its own SearchDriver, and all
// workers share one ConcurrentMfsPool so an MFS extracted anywhere
// immediately prunes every other search of the same subsystem.
//
// Reproducibility: each cell's RNG is split off the campaign seed by cell
// index (Rng::split), so the stream a cell consumes never depends on which
// worker runs it or in what order.  Under ShareScope::kCell every pool scope
// is private to one cell and campaigns are bitwise reproducible — a
// one-worker campaign replays serial SearchDriver runs exactly.  Under
// ShareScope::kSubsystem cells of the same subsystem prune each other, so
// per-cell discovery paths depend on insert timing; the deduped anomaly set
// the report surfaces is what converges.
//
// Time accounting: budgets and elapsed times are simulated testbed seconds
// (like core/search).  Each worker runs its cells back-to-back on its own
// simulated timeline; the campaign makespan is the slowest worker's
// timeline, and speedup is serial-sum / makespan.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/search.h"
#include "orchestrator/checkpoint.h"
#include "orchestrator/mfs_pool.h"
#include "orchestrator/scheduler.h"
#include "workload/engine.h"

namespace collie::orchestrator {

class CampaignJournal;   // orchestrator/journal.h
struct JournalResume;    // orchestrator/journal.h

enum class Strategy {
  kSimulatedAnnealing,  // Collie (Algorithm 1)
  kRandom,              // black-box fuzzing baseline
};

enum class ShareScope {
  kCell,       // pool scopes private per cell: bitwise-reproducible
  kSubsystem,  // shared across modes/seeds of one subsystem: max pruning
};

enum class ExecutionMode {
  // Real worker threads.  Under ShareScope::kSubsystem, which MFS a cell
  // sees depends on insert timing, so per-cell trajectories vary run to run
  // (the deduped report is what converges).  Under kCell scopes the threaded
  // run is bitwise identical to the deterministic one.
  kThreads,
  // Run cells in plan order on the calling thread, with the same worker
  // attribution, pool scoping and timeline accounting the threaded fleet
  // uses.  This is the reference semantics: cell i observes the pool state
  // after cells 0..i-1, independent of any scheduler.
  kDeterministic,
};

const char* to_string(Strategy s);
const char* to_string(ShareScope s);
const char* to_string(ExecutionMode m);

struct CampaignCell {
  char subsystem = 'F';
  // Fabric scenario this cell searches under (net::fabric_scenario names).
  // An MFS is a region of one (subsystem, fabric, cc) search space, so
  // scopes and report grouping carry both scenarios alongside the
  // subsystem.
  std::string fabric = "pair";
  // Congestion-control scenario (nic::cc_scenario names): arms switch-side
  // ECN marking and the DCQCN defaults, and opens the CC search dimension.
  std::string cc = "off";
  core::GuidanceMode mode = core::GuidanceMode::kDiag;
  int seed_ordinal = 0;  // replica of this (subsystem, fabric, cc, mode)
  u64 stream = 0;        // rng stream index, assigned by plan()
  // Wall budget of this cell in simulated testbed seconds, assigned by
  // plan() from the config's budget (or its mixed-budget cycle).
  double budget_seconds = 0.0;

  // "B" for the default pair scenario (the seed's labels), "B@hetero",
  // "B@fanin4+dcqcn" etc. otherwise.
  std::string subsystem_label() const;
  // Pool scope this cell reads and writes under the given sharing policy.
  std::string scope(ShareScope share) const;
  std::string label() const;  // "B/Diag#0", "B@hetero/Diag#0"

  // The subsystem with this cell's fabric scenario applied.
  sim::Subsystem materialize() const;
};

struct CampaignConfig {
  std::vector<char> subsystems;  // defaults to the full Table 1 catalog
  // Fabric scenarios to sweep; defaults to the paper's identical pair.
  std::vector<std::string> fabrics{"pair"};
  // Congestion-control scenarios to sweep; defaults to the seed's PFC-only
  // switch.
  std::vector<std::string> ccs{"off"};
  std::vector<core::GuidanceMode> modes{core::GuidanceMode::kDiag};
  Strategy strategy = Strategy::kSimulatedAnnealing;
  int seeds_per_cell = 1;  // replicas per (subsystem, fabric, cc, mode)
  int workers = 4;
  u64 campaign_seed = 1;
  ShareScope share = ShareScope::kSubsystem;
  ExecutionMode execution = ExecutionMode::kThreads;
  core::SearchBudget budget;  // per cell
  // Mixed-budget campaigns: plan cell i gets budget_cycle_seconds[i % size]
  // as its wall budget (empty = every cell gets `budget`).  LPT scheduling
  // exists for exactly this shape.
  std::vector<double> budget_cycle_seconds;
  // Cell -> worker assignment policy.  Round-robin is the seed behaviour
  // and exact for equal budgets; LPT packs mixed budgets onto the least-
  // loaded worker (virtual-time work stealing).
  SchedulePolicy schedule = SchedulePolicy::kRoundRobin;
  // Warm start: pre-seed the pool with these scopes and skip cells whose
  // labels the checkpoint records as completed.
  std::optional<CampaignCheckpoint> warm_start;
  // Replay: execute exactly this recorded schedule (a journal's begin
  // record carries it; --resume and --replay re-dispatch it).  Logical
  // workers come from the schedule; `workers` only caps physical threads,
  // so a replayed campaign is bit-for-bit identical at any worker count
  // (under ShareScope::kCell, where cell trajectories are
  // schedule-independent).
  std::optional<Schedule> replay;
  // Optional telemetry sink (not owned; must outlive run()).  The campaign
  // registers per-logical-worker instruments, attaches the pool, and hands
  // worker-sharded ProbeTelemetry handles to every driver and engine.
  // Telemetry never feeds back into search decisions, RNG streams or
  // simulated-time accounting, so results are bit-identical with it on or
  // off (pinned by orchestrator tests).
  obs::Telemetry* telemetry = nullptr;
  // Execution backend for every cell's engine (workload/backend.h).  Null =
  // the built-in simulator.  The campaign passes each cell's label as the
  // backend context, so journal probe records keep per-cell probe sequences
  // apart.  Journaled record/resume/replay requires schedule-independent
  // cell trajectories: the constructor rejects a kTrace factory (the
  // journal's splice backend) combined with threaded execution under
  // subsystem-scoped sharing (where what a cell sees depends on insert
  // timing).
  std::shared_ptr<workload::BackendFactory> backend_factory;
  // Empty: the pool has no settings.  Kept only because the campaign
  // benchmark constructs its pool from it; drop both with the next change
  // to the benchmark.
  MfsPoolOptions pool;
  // Durable journal sink (not owned; must outlive run()).  When set, the
  // campaign streams begin/probe/mfs_batch/cell_done records as it runs;
  // combined with a SpliceBackendFactory wrapping the backend, a crashed
  // run resumes to a byte-identical report (orchestrator/journal.h).
  CampaignJournal* journal = nullptr;
  // Parsed journal of a crashed run (not owned; must outlive run()).  When
  // set, the campaign restores completed cells verbatim from their
  // journaled cell_done records, refills the pool with their inserts in
  // completion order, and reconciles pool stats — partial cells re-run
  // through the splice backend's replayed prefix.
  const JournalResume* resume = nullptr;
  workload::EngineOptions engine;
};

struct CellResult {
  CampaignCell cell;
  core::SearchResult result;
  int worker = -1;
  // Offset of this cell on its worker's simulated timeline (set by
  // finish_campaign from the worker's queue).
  double start_seconds = 0.0;
  // MatchMFS hits served from MFSes another worker inserted.
  i64 cross_worker_skips = 0;
  // MatchMFS hits served from warm-start (checkpoint-loaded) MFSes.
  i64 warm_start_skips = 0;
  // True when the warm-start checkpoint recorded this cell as completed:
  // the cell ran zero experiments this campaign and the report counts it
  // in its own `skipped` column, never as covered.
  bool skipped = false;
  // Non-empty when the cell aborted mid-run (what() of the exception).  A
  // failed cell keeps any partial results for debugging, but the campaign
  // report must not count it as covered search time.
  std::string error;
  // Substrate that produced this cell's measurements ("sim", "mock"; a
  // replayed sim journal reports "sim" — attribution follows the substrate,
  // not the transport, so record and replay reports stay byte-identical).
  std::string backend = "sim";

  bool failed() const { return !error.empty(); }
};

struct CampaignResult {
  std::vector<CellResult> cells;  // in plan() order
  PoolStats pool;
  // The realized cell -> logical-worker schedule (journaled in the begin
  // record as a schedule_to_json document).
  Schedule schedule;
  // Every pool scope's final contents, for checkpointing (make_checkpoint),
  // plus the sharing policy the scope keys were formed under.
  std::map<std::string, std::vector<core::Mfs>> pool_scopes;
  ShareScope share = ShareScope::kSubsystem;
  // Substrate of the campaign's backend factory ("sim" without one).
  std::string backend = "sim";
  int workers = 0;                // logical workers of the schedule
  double serial_seconds = 0.0;    // sum of all cells' simulated elapsed
  double makespan_seconds = 0.0;  // slowest worker's simulated timeline

  double speedup() const {
    return makespan_seconds > 0.0 ? serial_seconds / makespan_seconds : 1.0;
  }
  i64 total_cross_worker_skips() const;
};

// ---- Shared cell execution (in-process campaign + fleet workers) ----------

// The slice of CampaignConfig one cell's search needs.  Fleet workers build
// this from the coordinator's config so a leased cell runs through exactly
// the code path the in-process campaign uses — that sharing is what makes
// a fault-free loopback fleet report byte-identical to the in-process one.
struct CellExecutionOptions {
  Strategy strategy = Strategy::kSimulatedAnnealing;
  ShareScope share = ShareScope::kSubsystem;
  core::SearchBudget budget;  // per-cell seconds overridden by the cell
  workload::EngineOptions engine;
  workload::BackendFactory* backend_factory = nullptr;  // not owned
  obs::Telemetry* telemetry = nullptr;                  // not owned
};

CellExecutionOptions cell_execution_options(const CampaignConfig& config);

// Run one cell end to end as logical worker `worker`: materialize the
// subsystem, drive the search against `store` (defaults to `view`; the
// journal and the fleet executor pass wrappers that forward to the view),
// attribute cross-worker / warm-start skips from the view, and catch any
// std::exception into CellResult::error so a bad cell cannot take its
// worker down.  `start_seconds` is copied into the result as is;
// finish_campaign overwrites it from the schedule, so the campaign and the
// fleet pass 0.
CellResult execute_cell(const CellExecutionOptions& opts,
                        const CampaignCell& cell, int worker,
                        double start_seconds, Rng rng,
                        ConcurrentMfsPool::View& view,
                        core::MfsStore* store = nullptr);

// Warm-start gating: false for cells the checkpoint records as completed.
// Throws when the checkpoint's sharing policy differs from the config's.
std::vector<bool> runnable_cells(const CampaignConfig& config,
                                 const std::vector<CampaignCell>& cells);

// The realized cell -> logical-worker schedule: a validated replay when
// config.replay is set, else LPT or round-robin over runnable cells.  The
// fleet coordinator plans with this exact function so its lease order
// matches the in-process campaign's dispatch.
Schedule plan_schedule(const CampaignConfig& config,
                       const std::vector<CampaignCell>& cells,
                       const std::vector<bool>& runnable);

// ---- Campaign lifecycle (in-process run + fleet coordinator) ------------
//
// Campaign::run and fleet::Coordinator execute cells differently (threads
// over a shared pool vs leases over a transport) but start and finish a
// campaign through these two steps, so a fault-free fleet report is the
// in-process one by construction.

struct CampaignStart {
  // The result skeleton: the realized schedule and its worker count, the
  // sharing policy, backend attribution on every cell, the warm-start-
  // completed cells marked `skipped` (the runnable mask is their
  // complement) and the resumed cells restored.  Every other slot of
  // `result.cells` awaits its executed result.
  CampaignResult result;
  // restored[i]: plan cell i completed before a crash; its journaled
  // cell_done result is in result.cells[i] and it never runs again.
  std::vector<bool> restored;
};

// Start a campaign over `cells` (Campaign::plan() of the normalized
// `config`): gate warm-start-completed cells, realize the schedule, write
// the journal's begin record (or, resuming, its session marker), and
// preload `pool` with the warm-start scopes and then every journaled
// completed cell's inserts in completion order.  Throws
// std::invalid_argument on a stale replay schedule, a warm start under a
// different sharing policy, or a journal naming a cell outside the plan.
CampaignStart start_campaign(const CampaignConfig& config,
                             const std::vector<CampaignCell>& cells,
                             ConcurrentMfsPool& pool);

// Finish a campaign whose cells are all in `result`: walk each logical
// worker's queue to attribute its cells to it and set their start offsets
// on its simulated timeline (so who executed a cell never shows), aggregate
// the timelines, read `pool`'s entries and scopes, and fold in the
// hit and duplicate observations `pool` did not make itself: the restored
// cells' journaled deltas plus `live_delta` (the fleet's accepted
// cell_done deltas; zero in-process, where `pool` served every search).
void finish_campaign(const CampaignConfig& config,
                     const ConcurrentMfsPool& pool,
                     const PoolStats& live_delta, CampaignResult& result);

class Campaign {
 public:
  // Fills the empty grid axes with their defaults (full catalog, pair
  // fabric, cc off).  Throws std::invalid_argument on a config it cannot
  // run as given: an unknown scenario, a duplicate grid entry, workers < 1
  // or seeds_per_cell < 1, among others.
  explicit Campaign(CampaignConfig config);

  const CampaignConfig& config() const { return config_; }

  // The deterministic cell list: subsystems x modes x seeds, with rng stream
  // indices and per-cell budgets assigned in list order.
  std::vector<CampaignCell> plan() const;

  // Run the campaign between start_campaign and finish_campaign.  The cell
  // -> worker assignment comes from the schedule policy (round-robin by
  // default, LPT for mixed budgets) or, when `config.replay` is set, from a
  // recorded schedule — validated against the plan so a stale recording
  // fails loudly.  Warm-start-completed cells are skipped before
  // scheduling.
  CampaignResult run();

 private:
  // Run plan cell `cell` as logical worker `worker` into `out`; a
  // `restored` cell keeps the journaled result start_campaign put there.
  void run_cell(int worker, const CampaignCell& cell, Rng rng, bool restored,
                ConcurrentMfsPool& pool, CellResult& out);
  // Register campaign-level and per-worker instruments for this schedule
  // (no-op without a telemetry sink).  Must run before worker threads start.
  void setup_telemetry(const Schedule& schedule, i64 skipped_cells);
  // One cell drained from `worker`'s queue (decrements its depth gauge).
  void note_cell_drained(int worker);

  CampaignConfig config_;

  // Per-logical-worker instruments, registered in run() before any thread
  // starts (registration is the only mutex-taking telemetry operation).
  // Indexed by logical worker, capped at kMaxWorkerInstruments named
  // instruments — workers past the cap still record sharded counters, they
  // just lose the per-worker breakdown.
  static constexpr int kMaxWorkerInstruments = 64;
  struct WorkerIds {
    obs::CounterId busy_ns;
    obs::GaugeId queue_depth;
  };
  std::vector<WorkerIds> worker_ids_;
  obs::CounterId cells_completed_;
  obs::CounterId cells_failed_;
  obs::CounterId cells_skipped_;
};

}  // namespace collie::orchestrator
