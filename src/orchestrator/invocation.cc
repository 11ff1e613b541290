#include "orchestrator/invocation.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "common/cli.h"
#include "common/strings.h"
#include "core/json_reader.h"
#include "net/fabric.h"
#include "nic/dcqcn.h"
#include "orchestrator/journal.h"
#include "sim/subsystem.h"

namespace collie::orchestrator {

namespace {

constexpr char kHeader[] = R"(usage: campaign [flags]

  $ ./campaign                                # full catalog, Diag, 4 workers
  $ ./campaign --sys BF --modes diag,perf --workers 2 --hours 4
  $ ./campaign --sys F --seeds 3 --share subsystem --json
  $ ./campaign --sys F --fabric pair,hetero,fanin4   # fabric scenario sweep
  $ ./campaign --sys F --fabric fanin4 --cc off,dcqcn,mistuned  # CC sweep
  $ ./campaign --sys B --trace-csv            # fleet-wide Figure-6 trace
  $ ./campaign --sys BF --hours 8,2 --schedule lpt   # mixed budgets, LPT
  $ ./campaign --sys B --checkpoint today.json       # persist the pool
  $ ./campaign --sys B --warm-start today.json       # skip known regions
  $ ./campaign --sys BF --journal j1                 # record a campaign
  $ ./campaign --sys BF --replay j1                  # re-run it offline
)";

// The campaign CLI's flags: --help, boolean registration, unknown-flag
// rejection and every default come from this table alone.
constexpr CliFlag kFlags[] = {
    {"sys", "<ids>", "all", "subsystem letters, e.g. \"BF\", or \"all\""},
    {"fabric", "<list>", "pair",
     "comma list of fabric scenarios (pair,hetero,fanin4) or \"all\"; pair "
     "is the paper's testbed"},
    {"cc", "<list>", "off",
     "comma list of congestion-control scenarios (off,dcqcn,mistuned) or "
     "\"all\"; off is the seed's PFC-only switch. Armed scenarios open the "
     "DCQCN knobs as search dimensions"},
    {"modes", "<list>", "diag", "comma list of diag,perf"},
    {"strategy", "<s>", "sa", "sa | random"},
    {"workers", "<n>", "4", "fleet size, at most 4096"},
    {"seeds", "<n>", "1", "replicas per (subsystem, mode) cell"},
    {"hours", "<h[,h..]>", "10",
     "simulated testbed hours per cell; the default is the paper's Figure "
     "4/5 budget. A comma list cycles over plan cells, a mixed-budget "
     "campaign; pair it with --schedule lpt"},
    {"schedule", "<p>", "rr",
     "rr | lpt. LPT packs mixed budgets onto the least-loaded worker "
     "(virtual-time work stealing)"},
    {"seed", "<s>", "1", "campaign seed; cells get split() streams"},
    {"share", "<scope>", "subsystem", "subsystem | cell"},
    {"warm-start", "<f>", nullptr,
     "load a checkpoint: its regions pre-seed MatchMFS and its completed "
     "cells are skipped. A damaged checkpoint is an error naming the byte "
     "offset"},
    {"checkpoint", "<f>", nullptr,
     "write pool scopes + completed cells after the run"},
    {"replay", "<f>", nullptr,
     "re-run the campaign recorded in journal <f> offline, at any --workers "
     "count, answering every probe from the journal: a byte-identical "
     "report. Pass the recording's flags; a cell whose recording diverges "
     "or runs out fails the replay with exit code 3"},
    {"functional", nullptr, nullptr,
     "after the run, audit every distinct anomaly's witness with the "
     "functional verbs pass and print how many are legal verbs programs, "
     "before the report; the report itself is unchanged"},
    {"json", nullptr, nullptr, "print the report as JSON instead of tables"},
    {"trace-csv", nullptr, nullptr,
     "print the merged fleet trace as CSV and exit"},
    {"metrics-out", "<f>", nullptr,
     "enable telemetry and write a collie-metrics-v1 JSON document to <f> "
     "(schema in README.md). --json stdout stays metrics-free"},
    {"metrics-interval", "<sec>", "0",
     "rewrite <f> with a fresh snapshot every <sec> seconds of wall time "
     "while the campaign runs; 0 writes the final snapshot only"},
    {"stats", nullptr, nullptr,
     "print the human telemetry table (counters, histogram quantiles, "
     "per-worker utilization) after the report"},
    {"fleet", "<n>", "0",
     "run as a loopback fleet: a coordinator plus up to <n> executor threads "
     "(at most 4096) speaking the fleet protocol (src/fleet/); 0 runs "
     "in-process"},
    {"heartbeat-ms", "<ms>", "20",
     "fleet executor heartbeat cadence, in [1, 2^31)"},
    {"heartbeat-timeout-ms", "<ms>", "250",
     "silence before the fleet coordinator declares an executor dead and "
     "re-queues its cell, in [1, 2^31) and above --heartbeat-ms"},
    {"kill-worker", "<cell>", nullptr,
     "fault injection: the fleet executor that runs the cell with this label "
     "(e.g. \"--kill-worker B/Diag#0\") dies before reporting it; the "
     "coordinator re-queues the cell, the executor restarts, and the report "
     "is unchanged"},
    {"journal", "<f>", nullptr,
     "durable crash journal (collie-journal-v3, schema in README.md), "
     "streamed as the campaign runs. A --fleet journal resumes but cannot "
     "be replayed"},
    {"resume", nullptr, nullptr,
     "continue a crashed --journal campaign without re-spending a journaled "
     "probe; the report is byte-identical to the uninterrupted run's"},
    {"journal-every", "<n>", "64", "probes between journal fsyncs"},
    {"crash-after-probes", "<n>", "0",
     "deterministic crash injection: sync the journal and _exit(137) after "
     "the <n>-th journaled live probe; 0 never crashes"},
    {"crash-at-journal-byte", "<b>", "0",
     "crash injection: _exit(137) the instant the journal would grow past "
     "absolute byte <b>, leaving a torn frame for recovery to quarantine; 0 "
     "never crashes"},
    {"help", nullptr, nullptr, "print this reference and exit"},
};

// The largest --hours entry: one simulated year.
constexpr int kMaxHours = 8760;

// The largest --workers / --fleet value.  A schedule holds one queue and a
// telemetry sink one shard per logical worker, so an unbounded count is an
// allocation the size of the number (2^31 queues are about 48 GiB).  The
// paper runs one testbed per subsystem, eight in all; 4096 leaves room for
// any grid this CLI plans.
constexpr int kMaxWorkers = 4096;

// Flags that only steer a --fleet run.
constexpr const char* kFleetOnly[] = {"heartbeat-ms", "heartbeat-timeout-ms",
                                      "kill-worker"};

// An integer flag that must lie in [lo, hi], narrowed to int.
int get_int_in(const CliArgs& args, const std::string& flag, i64 lo,
               i64 hi = INT32_MAX) {
  const i64 v = args.get_int(flag);
  if (v < lo || v > hi) {
    throw std::invalid_argument(
        "--" + flag + " must be in [" + std::to_string(lo) + ", " +
        (hi == INT32_MAX ? "2^31)" : std::to_string(hi) + "]"));
  }
  return static_cast<int>(v);
}

// Everything but the errors' exit codes; parse_campaign_invocation maps
// std::invalid_argument to exit 2.
CampaignInvocation parse(const CliArgs& args) {
  CampaignInvocation inv;
  if (args.has("help")) {
    inv.help = true;
    return inv;
  }
  args.reject_unknown();

  CampaignConfig& config = inv.config;
  const std::string sys = args.get("sys");
  if (sys.empty()) {
    throw std::invalid_argument("--sys needs at least one subsystem letter");
  }
  if (sys != "all") {
    std::vector<std::string> letters;
    for (const char c : sim::all_subsystem_ids()) letters.emplace_back(1, c);
    config.subsystems.clear();
    for (const char c : sys) {
      check_choice("sys", std::string(1, c), letters);
      config.subsystems.push_back(c);
    }
  }
  config.fabrics = args.get_choices("fabric", net::fabric_scenario_names(),
                                    /*all_keyword=*/true);
  config.ccs = args.get_choices("cc", nic::cc_scenario_names(),
                                /*all_keyword=*/true);
  config.modes.clear();
  for (const std::string& m :
       args.get_choices("modes", {"diag", "perf"}, /*all_keyword=*/false)) {
    config.modes.push_back(m == "perf" ? core::GuidanceMode::kPerf
                                       : core::GuidanceMode::kDiag);
  }
  config.strategy = args.get_choice("strategy", {"sa", "random"}) == "random"
                        ? Strategy::kRandom
                        : Strategy::kSimulatedAnnealing;
  config.workers = get_int_in(args, "workers", 1, kMaxWorkers);
  config.seeds_per_cell = get_int_in(args, "seeds", 1);
  // --hours is a single budget or a comma list cycled over plan cells.
  // Each entry is a finite, positive number of simulated hours, at most one
  // simulated year (the paper's runs take 10); NaN and inf fail the range
  // test.
  std::vector<double> hours;
  for (const std::string& h : split(args.get("hours"), ',')) {
    char* end = nullptr;
    const double v = std::strtod(h.c_str(), &end);
    if (end != h.c_str() + h.size() || !(v > 0.0 && v <= kMaxHours)) {
      throw std::invalid_argument("bad --hours entry '" + h +
                                  "' (want hours in (0, " +
                                  std::to_string(kMaxHours) + "])");
    }
    hours.push_back(v);
  }
  if (hours.empty()) {
    throw std::invalid_argument("--hours needs at least one value");
  }
  config.budget.seconds = hours[0] * 3600.0;
  if (hours.size() > 1) {
    for (const double h : hours) {
      config.budget_cycle_seconds.push_back(h * 3600.0);
    }
  }
  config.schedule = args.get_choice("schedule", {"rr", "lpt"}) == "lpt"
                        ? SchedulePolicy::kLpt
                        : SchedulePolicy::kRoundRobin;
  // Journals record the seed as a non-negative integer: a negative one
  // would record a campaign no --resume or --replay could read back.
  const i64 seed = args.get_int("seed");
  if (seed < 0) throw std::invalid_argument("--seed must be non-negative");
  config.campaign_seed = static_cast<u64>(seed);
  config.share = args.get_choice("share", {"subsystem", "cell"}) == "cell"
                     ? ShareScope::kCell
                     : ShareScope::kSubsystem;

  // --fleet: a coordinator + worker fleet over the in-process transport.
  // Its size is the campaign's worker count (and the telemetry shards').
  inv.fleet = get_int_in(args, "fleet", 0, kMaxWorkers);
  for (const char* flag : kFleetOnly) {
    if (inv.fleet == 0 && args.has(flag)) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " only applies to a --fleet run");
    }
  }
  // A worker is dead after heartbeat-timeout-ms of silence, so the timeout
  // must outlast the cadence a live worker beats at.
  fleet::FleetRunOptions& fleet = inv.fleet_options;
  const int heartbeat_ms = get_int_in(args, "heartbeat-ms", 1);
  const int timeout_ms = get_int_in(args, "heartbeat-timeout-ms", 1);
  if (timeout_ms <= heartbeat_ms) {
    throw std::invalid_argument(
        "--heartbeat-timeout-ms must exceed --heartbeat-ms (" +
        std::to_string(timeout_ms) + " <= " + std::to_string(heartbeat_ms) +
        ")");
  }
  fleet.coordinator.heartbeat_interval =
      std::chrono::milliseconds(heartbeat_ms);
  fleet.coordinator.heartbeat_timeout = std::chrono::milliseconds(timeout_ms);
  fleet.kill_at_cell = args.get("kill-worker");
  if (args.has("kill-worker") && fleet.kill_at_cell.empty()) {
    throw std::invalid_argument("--kill-worker needs a cell label");
  }
  if (inv.fleet > 0) config.workers = inv.fleet;

  inv.warm_start_path = args.get("warm-start");
  inv.checkpoint_path = args.get("checkpoint");

  // --journal / --resume / --replay: the durability layer.
  inv.journal_path = args.get("journal");
  inv.resume = args.get_bool("resume");
  inv.crash_after_probes = args.get_int("crash-after-probes");
  const i64 crash_at_byte = args.get_int("crash-at-journal-byte");
  inv.crash_at_journal_byte = static_cast<u64>(crash_at_byte);
  inv.replay_path = args.get("replay");
  if (!inv.replay_path.empty() &&
      (!inv.journal_path.empty() || inv.resume || inv.fleet > 0)) {
    throw std::invalid_argument(
        "--replay re-runs its journal offline; it cannot be combined with "
        "--journal, --resume or --fleet");
  }
  if (inv.journal_path.empty() &&
      (inv.resume || inv.crash_after_probes > 0 || crash_at_byte > 0)) {
    throw std::invalid_argument(
        "--resume/--crash-after-probes/--crash-at-journal-byte need "
        "--journal FILE");
  }
  if (inv.crash_after_probes < 0 || crash_at_byte < 0) {
    throw std::invalid_argument("crash injection offsets must be >= 0");
  }
  inv.journal_every = get_int_in(args, "journal-every", 1);

  inv.metrics_path = args.get("metrics-out");
  // A finite, non-negative number of seconds: the metrics document
  // records the interval as a number, and NaN and inf have no JSON form.
  inv.metrics_interval = args.get_double("metrics-interval");
  if (!std::isfinite(inv.metrics_interval) || inv.metrics_interval < 0) {
    throw std::invalid_argument("bad --metrics-interval '" +
                                args.get("metrics-interval") +
                                "' (want a finite number of seconds >= 0)");
  }
  if (inv.metrics_interval > 0 && inv.metrics_path.empty()) {
    throw std::invalid_argument(
        "--metrics-interval needs --metrics-out FILE");
  }
  inv.stats = args.get_bool("stats");
  inv.functional = args.get_bool("functional");
  inv.json = args.get_bool("json");
  inv.trace_csv = args.get_bool("trace-csv");
  return inv;
}

}  // namespace

std::variant<CampaignInvocation, InvocationError> parse_campaign_invocation(
    const std::vector<std::string>& args) {
  // CliArgs reads a C argv: slot 0 is the program name it skips.
  std::vector<const char*> argv{"campaign"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  try {
    return parse(CliArgs(static_cast<int>(argv.size()), argv.data(), kFlags));
  } catch (const std::invalid_argument& e) {
    return InvocationError{2, e.what()};
  }
}

std::string campaign_usage() { return cli_usage(kHeader, kFlags); }

std::optional<InvocationError> adopt_journal(const std::string& flag,
                                             const std::string& path,
                                             const JournalRecovery& rec,
                                             CampaignConfig* config,
                                             JournalResume* out) {
  const auto error = [](const std::string& message) {
    return std::optional<InvocationError>(InvocationError{2, message});
  };
  if (rec.payloads.empty()) {
    return error(flag + ": journal '" + path + "' holds no records");
  }
  try {
    *out = parse_journal(rec.payloads);
  } catch (const core::JsonError& e) {
    return error("bad journal '" + path + "': " + e.what());
  }
  if (!out->has_begin) {
    return error(flag + ": journal '" + path + "' has no begin record");
  }
  const std::string share = to_string(config->share);
  const std::string strategy = to_string(config->strategy);
  if (out->share != share || out->strategy != strategy ||
      out->seed != config->campaign_seed) {
    return error(flag + ": journal was recorded with --share " + out->share +
                 " --strategy " + out->strategy + " --seed " +
                 std::to_string(out->seed) + ", this invocation asks for " +
                 "--share " + share + " --strategy " + strategy + " --seed " +
                 std::to_string(config->campaign_seed));
  }
  config->replay = out->schedule;
  if (flag == "--replay") {
    if (out->probes == 0) {
      return error("--replay: journal '" + path +
                   "' holds no probe records (--fleet journals record only "
                   "cell results)");
    }
    config->backend_factory = journal_replay_factory(*out);
  } else {
    // Completed cells are restored from their cell_done records and never
    // re-probed: keep only the in-flight cells' splice prefixes.
    for (const auto& done : out->completed) out->recorded.erase(done.first);
    config->resume = out;
  }
  return std::nullopt;
}

}  // namespace collie::orchestrator
