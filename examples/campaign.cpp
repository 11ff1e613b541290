// Campaign CLI: fan a fleet of search workers over a (subsystem x
// guidance-mode x seed) grid with a shared MFS pool, then print the
// aggregated report.
//
// Run with --help for the flag reference (kUsage below).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/durable_io.h"
#include "common/strings.h"
#include "core/json_reader.h"
#include "core/report.h"
#include "fleet/fleet.h"
#include "net/fabric.h"
#include "nic/dcqcn.h"
#include "obs/telemetry.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/checkpoint.h"
#include "orchestrator/journal.h"
#include "orchestrator/scheduler.h"
#include "sim/subsystem.h"

using namespace collie;
using namespace collie::orchestrator;

namespace {

constexpr char kUsage[] = R"(usage: campaign [flags]

  $ ./campaign                                # full catalog, Diag, 4 workers
  $ ./campaign --sys BF --modes diag,perf --workers 2 --hours 4
  $ ./campaign --sys F --seeds 3 --share subsystem --json
  $ ./campaign --sys F --fabric pair,hetero,fanin4   # fabric scenario sweep
  $ ./campaign --sys F --fabric fanin4 --cc off,dcqcn,mistuned  # CC sweep
  $ ./campaign --sys B --trace-csv            # fleet-wide Figure-6 trace
  $ ./campaign --sys BF --hours 8,2 --schedule lpt   # mixed budgets, LPT
  $ ./campaign --sys B --checkpoint today.json       # persist the pool
  $ ./campaign --sys B --warm-start today.json       # skip known regions
  $ ./campaign --sys BF --share cell --journal j1    # record a campaign
  $ ./campaign --sys BF --share cell --replay j1     # re-run it offline

Flags:
  --sys <ids>        subsystem letters, e.g. "BF" or "all" (default all)
  --fabric <list>    comma list of fabric scenarios (pair,hetero,fanin4)
                     or "all"; default pair, the paper's testbed
  --cc <list>        comma list of congestion-control scenarios
                     (off,dcqcn,mistuned) or "all"; default off, the
                     seed's PFC-only switch.  Armed scenarios open the
                     DCQCN knobs as search dimensions
  --modes <list>     comma list of diag,perf (default diag)
  --strategy <s>     sa | random (default sa)
  --workers <n>      fleet size (default 4)
  --seeds <n>        replicas per (subsystem, mode) cell (default 1)
  --hours <h[,h..]>  simulated testbed hours per cell (default 10, the
                     paper's Figure 4/5 budget).  A comma list cycles
                     over plan cells — a mixed-budget campaign; pair it
                     with --schedule lpt
  --schedule <p>     rr | lpt (default rr).  LPT packs mixed budgets onto
                     the least-loaded worker (virtual-time work stealing)
  --seed <s>         campaign seed; cells get split() streams (default 1)
  --share <scope>    subsystem | cell (default subsystem)
  --keep-epochs <n>  superseded pool snapshots each scope retains before a
                     write frees them (default 8; 0 is legal).  Memory
                     only: the report is byte-identical for every <n>
  --exec <mode>      threads | deterministic (default threads)
  --warm-start <f>   load a checkpoint: its pool scopes pre-seed MatchMFS
                     (zero probes inside already-explained regions) and
                     its completed cells are skipped outright
  --checkpoint <f>   write pool scopes + completed cells after the run
  --replay <f>       re-run the campaign recorded in journal <f> offline:
                     its journaled schedule is re-dispatched (at any
                     --workers count) and every probe is answered from
                     its probe records — zero simulator evaluations, a
                     byte-identical report.  Pass the recording's flags;
                     a cell whose recording diverges or runs out fails
                     the replay with exit code 3
  --functional       run the engine's functional verbs pass too (slower)
  --json             print the report as JSON instead of tables
  --trace-csv        print the merged fleet trace as CSV and exit
  --metrics-out <f>  enable telemetry and write a collie-metrics-v1 JSON
                     document to <f> (schema in README.md): periodic
                     snapshots, the final roll-up, and the campaign
                     report with metrics embedded.  --json stdout stays
                     metrics-free so replayed runs diff bit-for-bit
  --metrics-interval <sec>
                     rewrite <f> with a fresh snapshot every <sec>
                     seconds of wall time while the campaign runs
                     (default 0 = final snapshot only)
  --stats            print the human telemetry table (counters,
                     histogram quantiles, per-worker utilization) after
                     the report
  --fleet <n>        run as a loopback fleet: a coordinator plus <n>
                     worker threads speaking the fleet protocol
                     (src/fleet/) over an in-process transport.  Fault
                     free under --share cell this produces the report the
                     in-process campaign produces, byte for byte
  --heartbeat-ms <ms>       fleet worker heartbeat cadence (default 20)
  --heartbeat-timeout-ms <ms>
                     silence before the coordinator declares a worker
                     dead and re-queues its cell (default 250)
  --steal-after-ms <ms>     wall-clock busy time on one cell before an
                     idle worker may steal from the victim's queue
                     (default 1000)
  --kill-worker <k@cell>    fault injection: fleet worker k dies while
                     executing the cell with that label (e.g.
                     "--kill-worker 1@B/Diag#0"); the coordinator
                     re-queues the cell and the run still completes
  --slow-worker <k@us>      fault injection: worker k sleeps <us>
                     microseconds per probe, making it the steal victim
  --journal <f>      durable crash journal: stream begin/probe/mfs/
                     cell-done records to <f> as the campaign runs
                     (collie-journal-v2, schema in README.md).  Needs
                     deterministic cell trajectories (--exec
                     deterministic or --share cell); --replay <f> re-runs
                     the recording offline.  Under --fleet it holds no
                     probe records, so it resumes but cannot be replayed
  --resume           continue a crashed --journal campaign: completed
                     cells restore verbatim from their journaled
                     results, half-finished cells replay their journaled
                     probe prefix (zero probes re-spent) and splice onto
                     the live substrate — the final report is
                     byte-identical to the uninterrupted run's
  --journal-every <n>  probes between journal fsyncs and driver-state
                     records (default 64)
  --crash-after-probes <n>   deterministic crash injection: sync the
                     journal and _exit(137) after the <n>-th journaled
                     live probe
  --crash-at-journal-byte <b>  crash injection: _exit(137) the instant
                     the journal would grow past absolute byte <b>,
                     leaving a torn frame for recovery to quarantine
  --warm-start-lenient  on a corrupt/truncated --warm-start checkpoint,
                     load the longest valid prefix instead of failing
  --help             print this reference and exit
)";

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

// Every file this CLI emits goes through durable_io::atomic_write (temp
// file + fsync + rename): a crash mid-write can tear a bare truncating
// ofstream, leaving a half-written checkpoint that poisons the next
// --warm-start.  Rename is atomic, so readers see the old document or the
// new one, never a torn middle.
bool write_file(const std::string& path, const std::string& content) {
  return durable_io::atomic_write(path, content + "\n");
}

// Newest spans exported per worker ring: enough to see what each worker
// was doing when the document was written, small enough that the file
// stays readable (the rings themselves hold 256 slots each).
constexpr int kSpansPerWorker = 64;

// The collie-metrics-v1 document (schema in README.md): periodic snapshots
// in capture order, the span-ring flight recorder, then — once the
// campaign is done — the final roll-up and the report with metrics
// embedded.
std::string metrics_document(double interval_seconds,
                             const std::vector<obs::Snapshot>& snapshots,
                             const obs::Telemetry& telemetry,
                             const std::string* report_json) {
  core::JsonWriter json;
  json.begin_object();
  json.field("schema", "collie-metrics-v1");
  json.field("interval_seconds", interval_seconds);
  json.begin_array("snapshots");
  for (const obs::Snapshot& snap : snapshots) snap.to_json(&json);
  json.end_array();
  obs::spans_to_json(telemetry, kSpansPerWorker, &json);
  if (report_json != nullptr) {
    json.key("report");
    json.raw_value(*report_json);
  }
  json.end_object();
  return json.str();
}

// "k@thing" fault-injection selectors (--kill-worker 1@B/Diag#0,
// --slow-worker 0@500).  Split at the FIRST '@' only: cell labels may
// themselves contain '@' ("B@hetero/Diag#0").
bool parse_worker_at(const std::string& arg, int* worker, std::string* rest) {
  const std::size_t at = arg.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= arg.size()) {
    return false;
  }
  char* end = nullptr;
  const long w = std::strtol(arg.c_str(), &end, 10);
  if (end != arg.c_str() + at || w < 0) return false;
  *worker = static_cast<int>(w);
  *rest = arg.substr(at + 1);
  return true;
}

// Parse a recovered journal for --resume or --replay (`flag`) and check it
// against this invocation: the journaled identity wins over defaults, but
// contradicting flags would silently continue a different campaign.
// Returns 0, or the exit code after printing why.
int load_journal(const char* flag, const std::string& path,
                 const JournalRecovery& rec, const std::string& share,
                 const std::string& strategy, u64 seed, JournalResume* out) {
  if (rec.payloads.empty()) {
    std::fprintf(stderr, "%s: journal '%s' holds no records\n", flag,
                 path.c_str());
    return 2;
  }
  try {
    *out = parse_journal(rec.payloads);
  } catch (const core::JsonError& e) {
    std::fprintf(stderr, "bad journal '%s': %s\n", path.c_str(), e.what());
    return 2;
  }
  if (!out->has_begin) {
    std::fprintf(stderr, "%s: journal '%s' has no begin record\n", flag,
                 path.c_str());
    return 2;
  }
  if (out->share != share || out->strategy != strategy || out->seed != seed) {
    std::fprintf(stderr,
                 "%s: journal was recorded with --share %s --strategy %s "
                 "--seed %llu, this invocation asks for --share %s "
                 "--strategy %s --seed %llu\n",
                 flag, out->share.c_str(), out->strategy.c_str(),
                 static_cast<unsigned long long>(out->seed), share.c_str(),
                 strategy.c_str(), static_cast<unsigned long long>(seed));
    return 2;
  }
  return 0;
}

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv, {"functional", "json", "trace-csv", "stats",
                            "resume", "warm-start-lenient", "help"});
  if (args.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  args.reject_unknown({
      "sys",          "fabric",       "cc",
      "modes",        "strategy",     "workers",
      "seeds",        "keep-epochs",  "hours",
      "schedule",     "seed",         "share",
      "exec",         "functional",   "warm-start",
      "replay",       "checkpoint",
      "metrics-out",  "metrics-interval",
      "stats",        "trace-csv",    "json",
      "fleet",        "heartbeat-ms", "heartbeat-timeout-ms",
      "steal-after-ms", "kill-worker", "slow-worker",
      "journal",      "resume",       "journal-every",
      "crash-after-probes", "crash-at-journal-byte", "warm-start-lenient",
  });

  CampaignConfig config;
  const std::string sys = args.get("sys", "all");
  if (sys != "all") {
    config.subsystems.clear();
    const auto known = sim::all_subsystem_ids();
    for (const char c : sys) {
      if (std::find(known.begin(), known.end(), c) == known.end()) {
        std::fprintf(stderr, "unknown subsystem '%c' (valid: A-%c)\n", c,
                     known.back());
        return 2;
      }
      config.subsystems.push_back(c);
    }
  }
  const std::string fabric_arg = args.get("fabric", "pair");
  config.fabrics.clear();
  if (fabric_arg == "all") {
    config.fabrics = net::fabric_scenario_names();
  } else {
    for (const std::string& f : split(fabric_arg, ',')) {
      if (net::find_fabric_scenario(f) == nullptr) {
        std::fprintf(stderr, "unknown fabric scenario '%s' (valid: %s)\n",
                     f.c_str(),
                     join(net::fabric_scenario_names(), ", ").c_str());
        return 2;
      }
      config.fabrics.push_back(f);
    }
  }
  const std::string cc_arg = args.get("cc", "off");
  config.ccs.clear();
  if (cc_arg == "all") {
    config.ccs = nic::cc_scenario_names();
  } else {
    for (const std::string& c : split(cc_arg, ',')) {
      if (nic::find_cc_scenario(c) == nullptr) {
        std::fprintf(stderr, "unknown cc scenario '%s' (valid: %s)\n",
                     c.c_str(), join(nic::cc_scenario_names(), ", ").c_str());
        return 2;
      }
      config.ccs.push_back(c);
    }
  }
  config.modes.clear();
  for (const std::string& m : split(args.get("modes", "diag"), ',')) {
    if (m == "perf") {
      config.modes.push_back(core::GuidanceMode::kPerf);
    } else if (m == "diag") {
      config.modes.push_back(core::GuidanceMode::kDiag);
    } else {
      std::fprintf(stderr, "unknown mode '%s' (valid: diag, perf)\n",
                   m.c_str());
      return 2;
    }
  }
  const std::string strategy = args.get("strategy", "sa");
  if (strategy != "sa" && strategy != "random") {
    std::fprintf(stderr, "unknown strategy '%s' (valid: sa, random)\n",
                 strategy.c_str());
    return 2;
  }
  config.strategy = strategy == "random" ? Strategy::kRandom
                                         : Strategy::kSimulatedAnnealing;
  config.workers = static_cast<int>(args.get_int("workers", 4));
  config.seeds_per_cell = static_cast<int>(args.get_int("seeds", 1));
  // Pool snapshot retention (memory only, never results); see
  // MfsPoolOptions.
  const i64 keep_epochs =
      args.get_int("keep-epochs", config.pool.keep_epochs);
  if (keep_epochs < 0) {
    std::fprintf(stderr, "--keep-epochs must be >= 0\n");
    return 2;
  }
  config.pool.keep_epochs = static_cast<int>(keep_epochs);
  {
    // --hours is a single budget or a comma list cycled over plan cells.
    const std::string hours_arg = args.get("hours", "10");
    std::vector<double> hours;
    for (const std::string& h : split(hours_arg, ',')) {
      char* end = nullptr;
      const double v = std::strtod(h.c_str(), &end);
      if (end != h.c_str() + h.size() || v <= 0.0) {
        std::fprintf(stderr, "bad --hours entry '%s'\n", h.c_str());
        return 2;
      }
      hours.push_back(v);
    }
    if (hours.empty()) {
      std::fprintf(stderr, "--hours needs at least one value\n");
      return 2;
    }
    config.budget.seconds = hours[0] * 3600.0;
    if (hours.size() > 1) {
      for (const double h : hours) {
        config.budget_cycle_seconds.push_back(h * 3600.0);
      }
    }
  }
  const std::string sched = args.get("schedule", "rr");
  if (sched != "rr" && sched != "lpt") {
    std::fprintf(stderr, "unknown schedule '%s' (valid: rr, lpt)\n",
                 sched.c_str());
    return 2;
  }
  config.schedule =
      sched == "lpt" ? SchedulePolicy::kLpt : SchedulePolicy::kRoundRobin;
  config.campaign_seed = static_cast<u64>(args.get_int("seed", 1));
  const std::string share = args.get("share", "subsystem");
  if (share != "subsystem" && share != "cell") {
    std::fprintf(stderr, "unknown share scope '%s' (valid: subsystem, cell)\n",
                 share.c_str());
    return 2;
  }
  config.share = share == "cell" ? ShareScope::kCell : ShareScope::kSubsystem;
  const std::string exec = args.get("exec", "threads");
  if (exec != "threads" && exec != "deterministic") {
    std::fprintf(stderr,
                 "unknown exec mode '%s' (valid: threads, deterministic)\n",
                 exec.c_str());
    return 2;
  }
  config.execution = exec == "deterministic" ? ExecutionMode::kDeterministic
                                             : ExecutionMode::kThreads;
  config.engine.run_functional_pass = args.get_bool("functional", false);

  // --fleet: run the campaign as a coordinator + worker fleet over the
  // in-process transport.  Parsed before telemetry/Campaign construction so
  // config.workers (and the telemetry shard count) reflect the fleet size.
  const i64 fleet_n = args.get_int("fleet", 0);
  if (fleet_n < 0) {
    std::fprintf(stderr, "--fleet must be >= 0\n");
    return 2;
  }
  fleet::FleetRunOptions fleet_opts;
  fleet_opts.coordinator.heartbeat_interval =
      std::chrono::milliseconds(args.get_int("heartbeat-ms", 20));
  fleet_opts.coordinator.heartbeat_timeout =
      std::chrono::milliseconds(args.get_int("heartbeat-timeout-ms", 250));
  fleet_opts.coordinator.steal_after =
      std::chrono::milliseconds(args.get_int("steal-after-ms", 1000));
  const std::string kill_arg = args.get("kill-worker", "");
  if (!kill_arg.empty() &&
      !parse_worker_at(kill_arg, &fleet_opts.kill_worker,
                       &fleet_opts.kill_at_cell)) {
    std::fprintf(stderr, "bad --kill-worker '%s' (want k@cell-label)\n",
                 kill_arg.c_str());
    return 2;
  }
  const std::string slow_arg = args.get("slow-worker", "");
  if (!slow_arg.empty()) {
    std::string us;
    if (!parse_worker_at(slow_arg, &fleet_opts.slow_worker, &us)) {
      std::fprintf(stderr, "bad --slow-worker '%s' (want k@microseconds)\n",
                   slow_arg.c_str());
      return 2;
    }
    char* end = nullptr;
    const long v = std::strtol(us.c_str(), &end, 10);
    if (end != us.c_str() + us.size() || v < 0) {
      std::fprintf(stderr, "bad --slow-worker '%s' (want k@microseconds)\n",
                   slow_arg.c_str());
      return 2;
    }
    fleet_opts.slow_probe_us = v;
  }
  if (fleet_n > 0) config.workers = static_cast<int>(fleet_n);

  const std::string warm_path = args.get("warm-start", "");
  if (!warm_path.empty()) {
    std::string text;
    if (!read_file(warm_path, &text)) {
      std::fprintf(stderr, "cannot read warm-start checkpoint '%s'\n",
                   warm_path.c_str());
      return 2;
    }
    CheckpointRecovery rec = recover_checkpoint(text);
    if (!rec.strict && !args.get_bool("warm-start-lenient", false)) {
      std::fprintf(stderr,
                   "bad checkpoint '%s': %s\n"
                   "  valid prefix ends at byte %zu of %zu",
                   warm_path.c_str(), rec.error.c_str(), rec.error_offset,
                   text.size());
      if (!rec.last_valid.empty()) {
        std::fprintf(stderr, " (last valid record: %s)", rec.last_valid.c_str());
      }
      std::fprintf(stderr,
                   "\n  pass --warm-start-lenient to load the %lld "
                   "recoverable entr%s\n",
                   static_cast<long long>(rec.entries_loaded),
                   rec.entries_loaded == 1 ? "y" : "ies");
      return 2;
    }
    if (!rec.strict) {
      std::printf("warm-start %s: corrupt past byte %zu/%zu, loaded %lld "
                  "entr%s leniently\n",
                  warm_path.c_str(), rec.error_offset, text.size(),
                  static_cast<long long>(rec.entries_loaded),
                  rec.entries_loaded == 1 ? "y" : "ies");
    }
    config.warm_start = std::move(*rec.checkpoint);
  }

  // --journal / --resume: the durability layer.  A fresh journaling run
  // streams records as it executes; a resumed one parses the recovered
  // journal up front, re-executes the journaled schedule, and splices each
  // half-finished cell onto its journaled probe prefix.
  const std::string journal_path = args.get("journal", "");
  const bool resume_flag = args.get_bool("resume", false);
  const i64 journal_every = args.get_int("journal-every", 64);
  const i64 crash_after = args.get_int("crash-after-probes", 0);
  const i64 crash_at_byte = args.get_int("crash-at-journal-byte", 0);

  // --replay <journal>: an offline re-run.  The journal's schedule is
  // re-dispatched and every probe is served from its probe records; the
  // file is only read (a torn tail is left in place).
  const std::string replay_path = args.get("replay", "");
  const bool replaying = !replay_path.empty();
  JournalResume recording;
  if (replaying) {
    if (!journal_path.empty() || resume_flag || fleet_n > 0) {
      std::fprintf(stderr,
                   "--replay re-runs its journal offline; it cannot be "
                   "combined with --journal, --resume or --fleet\n");
      return 2;
    }
    const JournalRecovery rec = recover_journal(replay_path, /*repair=*/false);
    if (!rec.error.empty() || !rec.existed) {
      std::fprintf(stderr, "cannot read journal '%s'%s%s\n",
                   replay_path.c_str(), rec.error.empty() ? "" : ": ",
                   rec.error.c_str());
      return 2;
    }
    if (rec.torn) {
      std::printf("journal %s: torn past byte %llu/%llu, replaying the "
                  "valid prefix\n",
                  replay_path.c_str(),
                  static_cast<unsigned long long>(rec.valid_bytes),
                  static_cast<unsigned long long>(rec.total_bytes));
    }
    const int rc = load_journal("--replay", replay_path, rec, share, strategy,
                                config.campaign_seed, &recording);
    if (rc != 0) return rc;
    if (recording.probes == 0) {
      std::fprintf(stderr,
                   "--replay: journal '%s' holds no probe records (--fleet "
                   "journals record only cell results)\n",
                   replay_path.c_str());
      return 2;
    }
    config.replay = recording.schedule;
    config.backend_factory = journal_replay_factory(recording);
  }

  if (journal_path.empty() &&
      (resume_flag || crash_after > 0 || crash_at_byte > 0)) {
    std::fprintf(stderr,
                 "--resume/--crash-after-probes/--crash-at-journal-byte "
                 "need --journal FILE\n");
    return 2;
  }
  if (journal_every < 1) {
    std::fprintf(stderr, "--journal-every must be >= 1\n");
    return 2;
  }

  std::unique_ptr<CampaignJournal> journal;
  JournalResume resume_state;
  if (!journal_path.empty()) {
    JournalRecovery rec = recover_journal(journal_path, /*repair=*/true);
    if (!rec.error.empty()) {
      std::fprintf(stderr, "cannot recover journal '%s': %s\n",
                   journal_path.c_str(), rec.error.c_str());
      return 2;
    }
    if (rec.torn) {
      std::printf("journal %s: torn past byte %llu/%llu, quarantined "
                  "suffix to %s\n",
                  journal_path.c_str(),
                  static_cast<unsigned long long>(rec.valid_bytes),
                  static_cast<unsigned long long>(rec.total_bytes),
                  rec.torn_path.c_str());
    }
    if (resume_flag) {
      const int rc = load_journal("--resume", journal_path, rec, share,
                                  strategy, config.campaign_seed,
                                  &resume_state);
      if (rc != 0) return rc;
      // Completed cells are restored from their cell_done records and never
      // re-probed: keep only the in-flight cells' splice prefixes.
      for (const auto& done : resume_state.completed) {
        resume_state.recorded.erase(done.first);
      }
      config.replay = resume_state.schedule;
      config.resume = &resume_state;
      std::printf("resuming journal %s: %zu completed cell(s), %lld "
                  "journaled probe(s), session %d\n",
                  journal_path.c_str(), resume_state.completed.size(),
                  static_cast<long long>(resume_state.probes),
                  resume_state.sessions + 1);
    } else if (!rec.payloads.empty()) {
      std::fprintf(stderr,
                   "journal '%s' already holds %zu record(s): pass --resume "
                   "to continue it, or remove the file to start over\n",
                   journal_path.c_str(), rec.payloads.size());
      return 2;
    }
    journal = std::make_unique<CampaignJournal>(
        journal_path, static_cast<int>(journal_every), crash_after,
        static_cast<u64>(crash_at_byte));
    config.journal = journal.get();
    if (fleet_n == 0) {
      // Wrap the substrate with the splice/journal factory — exactly once,
      // here (the fleet path journals through the coordinator instead, and
      // re-runs in-flight cells from scratch on resume).
      config.backend_factory = std::make_shared<SpliceBackendFactory>(
          nullptr, resume_flag ? &resume_state : nullptr, journal.get());
    }
  }

  const std::string metrics_path = args.get("metrics-out", "");
  const double metrics_interval =
      static_cast<double>(args.get_int("metrics-interval", 0));
  const bool want_stats = args.get_bool("stats", false);
  if (metrics_interval < 0 ||
      (metrics_interval > 0 && metrics_path.empty())) {
    std::fprintf(stderr, "--metrics-interval needs --metrics-out FILE\n");
    return 2;
  }
  std::unique_ptr<obs::Telemetry> telemetry;
  if (!metrics_path.empty() || want_stats) {
    obs::TelemetryOptions topts;
    topts.workers = config.workers;
    telemetry = std::make_unique<obs::Telemetry>(topts);
    config.telemetry = telemetry.get();
  }

  // Config validation (journal determinism, warm-start share mismatch)
  // throws from the constructor: reject loudly instead of crashing.
  std::unique_ptr<Campaign> campaign_ptr;
  try {
    campaign_ptr = std::make_unique<Campaign>(config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  Campaign& campaign = *campaign_ptr;
  std::printf("campaign: %zu cells, %d workers, %s scope, %s execution, %s "
              "schedule, %s backend%s\n",
              campaign.plan().size(), campaign.config().workers,
              to_string(config.share),
              fleet_n > 0 ? "fleet" : to_string(config.execution),
              replaying ? "replayed" : to_string(config.schedule),
              replaying ? "journal-replay" : "sim",
              config.warm_start ? ", warm-started" : "");

  // Periodic snapshot thread: rewrites the metrics file every interval so
  // a long campaign can be watched live (`metrics_inspect` on the file).
  std::vector<obs::Snapshot> snapshots;
  std::atomic<bool> sampling_done{false};
  std::thread sampler;
  if (telemetry && metrics_interval > 0) {
    sampler = std::thread([&] {
      const auto tick = std::chrono::milliseconds(50);
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(metrics_interval);
      while (!sampling_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(tick);
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(metrics_interval));
        snapshots.push_back(telemetry->snapshot());
        write_file(metrics_path,
                   metrics_document(metrics_interval, snapshots, *telemetry,
                                    nullptr));
      }
    });
  }

  CampaignResult result;
  try {
    if (fleet_n > 0) {
      fleet::FleetRunResult fr =
          fleet::run_loopback_fleet(campaign.config(), fleet_opts);
      result = std::move(fr.campaign);
      // Summary before the report so `--json | tail -1` stays the report.
      std::printf("fleet: %d workers, %lld leases, %lld re-queues, "
                  "%lld heartbeat misses, %lld stolen, %lld duplicates\n",
                  result.workers, static_cast<long long>(fr.stats.leases),
                  static_cast<long long>(fr.stats.requeues),
                  static_cast<long long>(fr.stats.heartbeat_misses),
                  static_cast<long long>(fr.stats.stolen),
                  static_cast<long long>(fr.stats.duplicates));
    } else {
      result = campaign.run();
    }
  } catch (const std::invalid_argument& e) {
    // Warm-start share mismatch or replay-vs-plan drift: reject loudly.
    std::fprintf(stderr, "%s\n", e.what());
    sampling_done.store(true, std::memory_order_relaxed);
    if (sampler.joinable()) sampler.join();
    return 2;
  } catch (const std::runtime_error& e) {
    // Fleet stall (every worker dead, nobody reconnecting).
    std::fprintf(stderr, "%s\n", e.what());
    sampling_done.store(true, std::memory_order_relaxed);
    if (sampler.joinable()) sampler.join();
    return 3;
  }
  sampling_done.store(true, std::memory_order_relaxed);
  if (sampler.joinable()) sampler.join();

  if (replaying) {
    // execute_cell turns a diverged or exhausted recording into a failed
    // cell; for a replay that is the whole verdict, so fail the process.
    for (const CellResult& cr : result.cells) {
      if (!cr.failed()) continue;
      std::fprintf(stderr, "replay of journal '%s' failed: cell %s: %s\n",
                   replay_path.c_str(), cr.cell.label().c_str(),
                   cr.error.c_str());
      return 3;
    }
  }

  const std::string checkpoint_path = args.get("checkpoint", "");
  if (!checkpoint_path.empty()) {
    if (!write_file(checkpoint_path, make_checkpoint(result).to_json())) {
      std::fprintf(stderr, "cannot write checkpoint '%s'\n",
                   checkpoint_path.c_str());
      return 2;
    }
    std::printf("checkpointed %zu pool scopes to %s\n",
                result.pool_scopes.size(), checkpoint_path.c_str());
  }

  if (args.get_bool("trace-csv", false)) {
    std::printf("%s", aggregate_trace_csv(result).c_str());
    return 0;
  }
  const CampaignReport report = build_report(result);

  if (telemetry && !metrics_path.empty()) {
    // Final roll-up: one last snapshot appended to the series, and the
    // report with metrics embedded.  Stdout (--json and tables) stays
    // metrics-free so a replayed campaign's output diffs bit-for-bit.
    const obs::Snapshot final_snap = telemetry->snapshot();
    snapshots.push_back(final_snap);
    const std::string report_json = report.to_json(&final_snap);
    if (!write_file(metrics_path, metrics_document(metrics_interval,
                                                   snapshots, *telemetry,
                                                   &report_json))) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   metrics_path.c_str());
      return 2;
    }
    std::printf("wrote %zu metrics snapshot%s to %s\n", snapshots.size(),
                snapshots.size() == 1 ? "" : "s", metrics_path.c_str());
  }

  if (args.get_bool("json", false)) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("\n%s", report.render().c_str());
  }
  if (telemetry && want_stats) {
    std::printf("\n%s", obs::render_stats(telemetry->snapshot()).c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Malformed numeric flags (CliArgs parses strictly and names the flag).
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
