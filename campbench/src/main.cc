// Campaign benchmark program: runs one workload's campaigns in this process,
// single-threaded, for a fixed measuring time, checks their outputs, and
// prints the metrics.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   campbench --workload pair_grid --seed 1 --seconds 20 --trace 0
//       end-to-end metrics, tracing off
//   campbench --workload pair_grid --seed 1 --seconds 20 --trace 1
//       untraced and traced runs of the same campaign; prints the end-to-end
//       table, the per-layer metrics, every correctness gate, and the
//       per-layer metrics as the JSON line
//
// A run cycles through the workload's kCampaignsPerRun campaigns (seeds
// derived from --seed, so the same seed gives the same inputs) until its
// measuring time is spent, and reports medians over repetitions.
// The timed window of a repetition is Campaign::run plus build_report and
// the report's JSON rendering; set-up (config, plan, journal creation) and
// the witness audit stay outside it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "layers.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/checkpoint.h"
#include "orchestrator/journal.h"
#include "workload/backend_sim.h"
#include "workload/engine.h"
#include "workloads.h"

using namespace collie;
using namespace collie::orchestrator;
using namespace campbench;

namespace {

double wall_s() { return static_cast<double>(steady_ns()) / 1e9; }

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Correctness gates ---------------------------------------------------

class Gates {
 public:
  void check(bool ok, const std::string& what) {
    std::printf("gate %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) {
      std::fprintf(stderr, "campbench: correctness gate failed: %s\n",
                   what.c_str());
      failed_ = true;
    }
  }
  bool passed() const { return !failed_; }

 private:
  bool failed_ = false;
};

i64 cell_experiments(const CampaignResult& r) {
  i64 n = 0;
  for (const CellResult& cr : r.cells) n += cr.result.experiments;
  return n;
}

i64 failed_cells(const CampaignResult& r) {
  i64 n = 0;
  for (const CellResult& cr : r.cells) n += cr.failed() ? 1 : 0;
  return n;
}

std::string scopes_json(const std::map<std::string, std::vector<core::Mfs>>& s,
                        const std::string& share) {
  CampaignCheckpoint ck;
  ck.share = share;
  ck.scopes = s;
  return ck.to_json();
}

// ---- Journal plumbing ------------------------------------------------------

// The journal sink of one campaign, set up the way `campaign --journal`
// does (recover first, refuse a non-empty journal).
std::unique_ptr<CampaignJournal> open_journal(const std::string& path) {
  JournalRecovery rec = recover_journal(path, /*repair=*/true);
  if (!rec.error.empty() || !rec.payloads.empty()) {
    throw std::runtime_error("journal '" + path + "' is not fresh: " +
                             rec.error);
  }
  return std::make_unique<CampaignJournal>(path, kJournalEvery);
}

void remove_journal(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".torn", ec);
}

struct JournalCheck {
  bool clean = false;        // no torn suffix, no I/O error, has begin
  bool scopes_match = false; // journal_to_checkpoint == pool_scopes
  double recover_s = 0.0;    // recover + parse + journal_to_checkpoint
};

JournalCheck check_journal(const std::string& path, const CampaignResult& r) {
  JournalCheck out;
  const double t0 = wall_s();
  const JournalRecovery rec = recover_journal(path, /*repair=*/false);
  const JournalResume resume = parse_journal(rec.payloads);
  const CampaignCheckpoint ck = journal_to_checkpoint(resume);
  out.recover_s = wall_s() - t0;
  out.clean = rec.error.empty() && !rec.torn && resume.has_begin &&
              resume.completed.size() == r.cells.size();
  out.scopes_match = scopes_json(ck.scopes, to_string(r.share)) ==
                     scopes_json(r.pool_scopes, to_string(r.share));
  return out;
}

// ---- One repetition --------------------------------------------------------

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string report_json;
  CampaignReport report;
  CampaignResult result;
  i64 journal_bytes = 0;
  i64 journal_probes = 0;
};

// The backend chain of a traced run: timing around the substrate (workload
// layer) and, when journaled, timing around the splice backend (journal).
std::shared_ptr<workload::BackendFactory> traced_factory(LayerTrace* trace,
                                                         CampaignJournal* j) {
  auto inner = std::make_shared<TimingBackendFactory>(
      std::make_shared<workload::SimBackendFactory>(), trace,
      ProbeRole::kInner);
  if (j == nullptr) return inner;
  return std::make_shared<TimingBackendFactory>(
      std::make_shared<SpliceBackendFactory>(inner, nullptr, j), trace,
      ProbeRole::kOuter);
}

// Set-up is repeated this many times per untraced repetition (each a
// complete, discarded set-up but the last), so setup_s is a median over
// many samples.
constexpr int kSetupSamples = 25;

// One campaign run.  Untraced when `trace` is null: exactly the user's
// path, with every set-up time appended to `setup_samples`.
Rep run_rep(const CampaignConfig& base, bool journaled,
            const std::string& journal_path, LayerTrace* trace,
            std::vector<double>* setup_samples = nullptr) {
  Rep rep;
  CampaignConfig config;
  std::unique_ptr<CampaignJournal> journal;
  std::optional<Campaign> campaign;
  const int setups = trace == nullptr ? kSetupSamples : 1;
  for (int k = 0; k < setups; ++k) {
    campaign.reset();
    journal.reset();
    remove_journal(journal_path);
    const double s0 = wall_s();
    config = base;
    if (journaled) {
      journal = open_journal(journal_path);
      config.journal = journal.get();
    }
    if (trace != nullptr) {
      config.backend_factory = traced_factory(trace, config.journal);
    } else if (journaled) {
      config.backend_factory = std::make_shared<SpliceBackendFactory>(
          nullptr, nullptr, config.journal);
    }
    if (trace == nullptr) {
      campaign.emplace(config);
      (void)campaign->plan();
    }
    if (setup_samples != nullptr) setup_samples->push_back(wall_s() - s0);
  }

  const double w0 = wall_s();
  const double c0 = cpu_s();
  if (trace == nullptr) {
    rep.result = campaign->run();
    rep.report = build_report(rep.result);
    rep.report_json = rep.report.to_json();
  } else {
    const u64 t0 = trace->now();
    rep.result = run_traced_campaign(config, trace);
    const u64 r0 = trace->now();
    rep.report = build_report(rep.result);
    rep.report_json = rep.report.to_json();
    const u64 r1 = trace->now();
    trace->add_report(r1 - r0);
    trace->add_window(r1 - t0);
  }
  rep.cpu_s = cpu_s() - c0;
  rep.wall_s = wall_s() - w0;
  if (journal != nullptr) {
    rep.journal_bytes = static_cast<i64>(journal->bytes());
    rep.journal_probes = journal->probes();
  }
  return rep;
}

// ---- Witness audit ------------------------------------------------------

struct Audit {
  i64 audited = 0;
  i64 illegal = 0;
  std::vector<double> validate_ms;
  double legal_share() const {
    return audited > 0 ? 1.0 - static_cast<double>(illegal) /
                                   static_cast<double>(audited)
                       : 0.0;
  }
};

// Witnesses audited per run, split evenly over its campaigns.  A legal
// witness costs tens of ms to validate, so this keeps the audit to a few
// seconds per run.
constexpr int kAuditSamples = 240;

// Audit engines, one per materialized (subsystem, fabric, cc) scenario.
using EngineCache = std::map<std::string, std::unique_ptr<workload::Engine>>;

// Validate a fixed, evenly strided sample of the report's distinct
// anomalies: each representative witness runs through the engine's
// functional verbs pass on its cell's materialized subsystem.
Audit audit_witnesses(const CampaignReport& report, int max_samples,
                      EngineCache& engines) {
  Audit a;
  const std::size_t n = report.anomalies.size();
  const std::size_t k = std::min<std::size_t>(n, static_cast<std::size_t>(max_samples));
  for (std::size_t i = 0; i < k; ++i) {
    const DedupedAnomaly& d = report.anomalies[i * n / k];
    CampaignCell cell;
    cell.subsystem = d.subsystem;
    cell.fabric = d.fabric;
    cell.cc = d.cc;
    std::unique_ptr<workload::Engine>& engine = engines[cell.subsystem_label()];
    if (engine == nullptr) {
      engine = std::make_unique<workload::Engine>(cell.materialize());
    }
    const double t0 = wall_s();
    const bool ok = engine->validate_functional(d.representative.witness, nullptr);
    a.validate_ms.push_back((wall_s() - t0) * 1e3);
    ++a.audited;
    if (!ok) ++a.illegal;
  }
  return a;
}

// ---- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  // "higher" / "lower" / "" (per-layer, no direction)
  i64 samples = -1;    // sample count behind a percentile (-1 = n/a)
};

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (!m.better.empty()) std::printf(" %s is better", m.better.c_str());
    if (m.samples >= 0) std::printf(" (n=%lld)", static_cast<long long>(m.samples));
    std::printf("\n");
  }
}

void print_result_json(bool correct, i64 attempted, i64 failed,
                       const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---- Per-layer metrics -------------------------------------------------------

// Journal layer of a workload without a journal in its window: a journaled,
// traced side run of the grid's first cell, outside every timed window.
struct JournalSide {
  LayerTrace trace;
  i64 bytes = 0;
  i64 probes = 0;
  double recover_s = 0.0;
  bool clean = false;
};

void journal_side_run(const WorkloadSpec& spec, u64 seed,
                      const std::string& path, JournalSide* side) {
  CampaignConfig config = make_config(spec, seed);
  config.subsystems = {config.subsystems.front()};
  config.modes = {config.modes.front()};
  config.seeds_per_cell = 1;
  Rep rep = run_rep(config, /*journaled=*/true, path, &side->trace);
  side->bytes = rep.journal_bytes;
  side->probes = rep.journal_probes;
  const JournalCheck jc = check_journal(path, rep.result);
  side->recover_s = jc.recover_s;
  side->clean = jc.clean && jc.scopes_match;
  remove_journal(path);
}

std::vector<Metric> layer_metrics(const LayerTrace& t, int reps,
                                  double duplicate_insert_ratio,
                                  const Audit& audit,
                                  const std::vector<double>& recover_s,
                                  i64 journal_bytes, i64 journal_probes,
                                  const JournalSide* side,
                                  double traced_eps_cpu, double untraced_eps_cpu) {
  const double window = static_cast<double>(t.window_ns());
  const double per = reps > 0 ? 1.0 / reps : 0.0;
  const LayerTrace& jt = side != nullptr ? side->trace : t;
  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, std::string unit, i64 n = -1) {
    m.push_back({std::move(name), v, std::move(unit), "", n});
  };
  const auto n_measure = static_cast<i64>(t.measure_us().size());
  add("workload.measure_calls", static_cast<double>(t.probes()) * per, "count");
  add("workload.measure_us_p50", percentile(t.measure_us(), 50), "us", n_measure);
  add("workload.measure_us_p99", percentile(t.measure_us(), 99), "us", n_measure);
  add("workload.measure_share", ratio(static_cast<double>(t.measure_ns()), window), "ratio");
  add("workload.remeasure_ratio",
      ratio(static_cast<double>(t.remeasured()), static_cast<double>(t.probes())), "ratio");

  const auto n_covers = static_cast<i64>(t.covers_ns().size());
  add("core.covers_calls", static_cast<double>(t.covers_calls()) * per, "count");
  add("core.covers_ns_p50", percentile(t.covers_ns(), 50), "ns", n_covers);
  add("core.covers_ns_p99", percentile(t.covers_ns(), 99), "ns", n_covers);
  add("core.covers_hit_ratio",
      ratio(static_cast<double>(t.covers_hits()), static_cast<double>(t.covers_calls())),
      "ratio");
  add("core.covers_share", ratio(static_cast<double>(t.covers_self_ns()), window), "ratio");

  const auto n_extract = static_cast<i64>(t.extract_ms().size());
  add("core.extractions", static_cast<double>(t.extractions()) * per, "count");
  add("core.necessity_probes_per_extraction",
      ratio(static_cast<double>(t.necessity_probes()),
            static_cast<double>(t.extractions())),
      "count");
  add("core.extract_ms_p50", percentile(t.extract_ms(), 50), "ms", n_extract);
  add("core.extract_ms_p99", percentile(t.extract_ms(), 99), "ms", n_extract);
  add("core.extract_share", ratio(static_cast<double>(t.extract_self_ns()), window), "ratio");

  const auto n_insert = static_cast<i64>(t.insert_us().size());
  add("orchestrator.insert_us_p50", percentile(t.insert_us(), 50), "us", n_insert);
  add("orchestrator.insert_us_p99", percentile(t.insert_us(), 99), "us", n_insert);
  add("orchestrator.insert_share", ratio(static_cast<double>(t.insert_ns()), window), "ratio");
  add("orchestrator.duplicate_insert_ratio", duplicate_insert_ratio, "ratio");
  add("orchestrator.report_ms", median(t.report_ms()), "ms",
      static_cast<i64>(t.report_ms().size()));
  add("orchestrator.report_share", ratio(static_cast<double>(t.report_ns()), window), "ratio");

  const auto n_journal = static_cast<i64>(jt.journal_probe_us().size());
  add("journal.probes",
      static_cast<double>(n_journal) * (side != nullptr ? 1.0 : per), "count");
  add("journal.probe_us_p50", percentile(jt.journal_probe_us(), 50), "us", n_journal);
  add("journal.probe_us_p99", percentile(jt.journal_probe_us(), 99), "us", n_journal);
  add("journal.bytes_per_probe",
      ratio(static_cast<double>(journal_bytes), static_cast<double>(journal_probes)),
      "bytes");
  add("journal.share", ratio(static_cast<double>(t.journal_ns()), window), "ratio");
  add("journal.recover_s", median(recover_s), "s", static_cast<i64>(recover_s.size()));

  add("verbs.audited", static_cast<double>(audit.audited), "count");
  add("verbs.validate_ms_p50", percentile(audit.validate_ms, 50), "ms", audit.audited);
  add("verbs.reject_ratio",
      ratio(static_cast<double>(audit.illegal), static_cast<double>(audit.audited)), "ratio");

  const auto n_interval = static_cast<i64>(t.interval_us().size());
  add("probe.intervals", static_cast<double>(n_interval), "count");
  add("probe.interval_us_p50", percentile(t.interval_us(), 50), "us", n_interval);
  add("probe.interval_us_p99", percentile(t.interval_us(), 99), "us", n_interval);
  add("driver.unattributed_share", ratio(t.unattributed_ns(), window), "ratio");

  add("trace.experiments_per_cpu_s", traced_eps_cpu, "1/s");
  add("trace.overhead_share", 1.0 - ratio(traced_eps_cpu, untraced_eps_cpu), "ratio");
  return m;
}

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.reject_unknown({"workload", "seed", "seconds", "trace", "workdir"});
  const std::string name = args.get("workload", "");
  const WorkloadSpec* spec = find_workload(name);
  if (spec == nullptr) {
    std::string known;
    for (const WorkloadSpec& s : workloads()) known += " " + s.name;
    throw std::invalid_argument("unknown --workload '" + name + "' (known:" +
                                known + ")");
  }
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 20.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const std::string workdir = args.get("workdir", ".");
  std::filesystem::create_directories(workdir);
  const std::string journal_path = workdir + "/" + spec->name + ".journal";

  std::printf("campbench: workload %s (%s), seed %llu, %.0f s measuring, "
              "trace %d; held-out seed %llu\n",
              spec->name.c_str(), spec->why.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0,
              static_cast<unsigned long long>(kHeldOutSeed));
  Gates gates;

  // ---- Repetitions ----
  // A run covers kCampaignsPerRun campaigns whose seeds derive from --seed,
  // so seed-to-seed differences in what a campaign finds average out.
  // Iteration i runs campaign i mod kCampaignsPerRun untraced and, with
  // --trace 1, traced right after, so both see the same machine conditions.
  // Iterations continue while another one still fits the measuring time;
  // untraced runs visit every campaign at least twice (the determinism
  // gate), traced runs at least once.
  struct CampaignRef {
    CampaignConfig config;
    std::string json;
    CampaignReport report;
    i64 experiments = -1;  // -1 until the first run
  };
  std::vector<CampaignRef> campaigns(kCampaignsPerRun);
  for (int k = 0; k < kCampaignsPerRun; ++k) {
    campaigns[static_cast<std::size_t>(k)].config =
        make_config(*spec, campaign_seed(seed, k));
  }
  std::vector<double> setup, eps_cpu, eps_wall, cpu_window, traced_eps_cpu;
  std::vector<double> recover_s;
  i64 attempted = 0, failed = 0, journal_bytes = 0, journal_probes = 0;
  bool deterministic = true, traced_agree = true, counts_agree = true;
  bool journal_clean = true, journal_scopes = true;
  double rss_mb = 0.0;
  LayerTrace trace;
  i64 prev_probes = 0, prev_extractions = 0;
  auto check_journal_of = [&](const CampaignResult& r) {
    const JournalCheck jc = check_journal(journal_path, r);
    recover_s.push_back(jc.recover_s);
    journal_clean = journal_clean && jc.clean;
    journal_scopes = journal_scopes && jc.scopes_match;
  };
  const int min_iterations = (traced ? 1 : 2) * kCampaignsPerRun;
  const double t_begin = wall_s();
  for (int i = 0;; ++i) {
    const double it0 = wall_s();
    CampaignRef& c = campaigns[static_cast<std::size_t>(i % kCampaignsPerRun)];
    Rep rep = run_rep(c.config, spec->journaled, journal_path, nullptr, &setup);
    const i64 exps = cell_experiments(rep.result);
    std::fprintf(stderr, "rep %d: %.4f s cpu, %.4f s wall\n", i, rep.cpu_s,
                 rep.wall_s);
    eps_cpu.push_back(static_cast<double>(exps) / rep.cpu_s);
    eps_wall.push_back(static_cast<double>(exps) / rep.wall_s);
    cpu_window.push_back(rep.cpu_s);
    attempted += static_cast<i64>(rep.result.cells.size());
    failed += failed_cells(rep.result);
    if (c.experiments < 0) {
      c.experiments = exps;
      c.json = rep.report_json;
      c.report = std::move(rep.report);
      journal_bytes += rep.journal_bytes;
      journal_probes += rep.journal_probes;
    } else if (rep.report_json != c.json || exps != c.experiments) {
      deterministic = false;
    }
    if (spec->journaled) check_journal_of(rep.result);
    rep = Rep{};
    // Taken before the audit's verbs buffers.  Only --trace 0 reports it:
    // with --trace 1 it also covers the traced repetitions' samples.
    rss_mb = std::max(rss_mb, peak_rss_mb());

    if (traced) {
      Rep tr = run_rep(c.config, spec->journaled, journal_path, &trace);
      const i64 texps = cell_experiments(tr.result);
      traced_eps_cpu.push_back(static_cast<double>(texps) / tr.cpu_s);
      attempted += static_cast<i64>(tr.result.cells.size());
      failed += failed_cells(tr.result);
      traced_agree = traced_agree && tr.report_json == c.json &&
                     texps == c.experiments &&
                     tr.report.anomalies.size() == c.report.anomalies.size();
      counts_agree = counts_agree && trace.probes() - prev_probes == texps &&
                     trace.extractions() - prev_extractions == tr.result.pool.entries;
      prev_probes = trace.probes();
      prev_extractions = trace.extractions();
      if (spec->journaled) check_journal_of(tr.result);
    }
    remove_journal(journal_path);
    const double now = wall_s();
    if (i + 1 >= min_iterations && (now - t_begin) + (now - it0) > seconds) break;
  }

  bool round_trips = true, reports_anomalies = true, totals_match = true;
  i64 inserts = 0, duplicate_inserts = 0;
  for (const CampaignRef& c : campaigns) {
    inserts += c.report.pool.entries;
    duplicate_inserts += c.report.pool.duplicate_inserts;
    round_trips = round_trips && campaign_report_from_json(c.json).to_json() == c.json;
    reports_anomalies = reports_anomalies && !c.report.anomalies.empty();
    totals_match = totals_match && c.report.total_experiments == c.experiments;
  }
  gates.check(failed == 0, "no cell failed");
  gates.check(deterministic,
              "every repetition of a campaign gives a byte-identical report");
  gates.check(round_trips,
              "campaign_report_from_json(to_json()) round-trips byte-identically");
  gates.check(reports_anomalies, "every campaign reports anomalies");
  gates.check(totals_match, "report total_experiments equals the cells' experiments");
  if (spec->journaled) {
    gates.check(journal_clean,
                "recover_journal finds no torn suffix and every cell done");
    gates.check(journal_scopes,
                "journal_to_checkpoint(parse_journal(...)) equals pool_scopes");
  }

  // ---- Witness audit (outside every window) ----
  const double a0 = wall_s();
  Audit audit;
  EngineCache engines;
  double legal = 0.0, distinct = 0.0, experiments = 0.0;
  for (const CampaignRef& c : campaigns) {
    const Audit one = audit_witnesses(c.report, kAuditSamples / kCampaignsPerRun, engines);
    const double n = static_cast<double>(c.report.anomalies.size());
    legal += n * one.legal_share() / kCampaignsPerRun;
    distinct += n / kCampaignsPerRun;
    experiments += static_cast<double>(c.experiments) / kCampaignsPerRun;
    audit.audited += one.audited;
    audit.illegal += one.illegal;
    audit.validate_ms.insert(audit.validate_ms.end(), one.validate_ms.begin(),
                             one.validate_ms.end());
  }
  const double audit_s = wall_s() - a0;
  gates.check(audit.audited > 0, "witness audit sampled at least one witness");

  std::vector<Metric> e2e = {
      {"experiments_per_cpu_s", median(eps_cpu), "1/s", "higher",
       static_cast<i64>(eps_cpu.size())},
      {"experiments_per_s", median(eps_wall), "1/s", "higher",
       static_cast<i64>(eps_wall.size())},
      {"legal_anomalies_per_cpu_s", legal / median(cpu_window), "1/s", "higher",
       static_cast<i64>(cpu_window.size())},
      {"legal_anomalies", legal, "count", "higher", audit.audited},
      {"legal_witness_ratio", audit.legal_share(), "ratio", "higher", audit.audited},
      {"setup_s", median(setup), "s", "lower", static_cast<i64>(setup.size())},
      {"peak_rss_mb", rss_mb, "MB", "lower", -1},
  };
  std::printf("\nrun: %zu repetition(s) over %d campaigns of %.0f experiments "
              "and %.0f distinct anomalies on average; %lld/%lld audited "
              "witnesses illegal (audit %.2f s); experiments_per_cpu_s spread "
              "(IQR/median) over repetitions %.4f\n",
              eps_cpu.size(), kCampaignsPerRun, experiments, distinct,
              static_cast<long long>(audit.illegal),
              static_cast<long long>(audit.audited), audit_s, iqr_share(eps_cpu));
  print_table("end-to-end metrics (tracing off)", e2e);

  if (!traced) {
    print_result_json(gates.passed(), attempted, failed, e2e);
    return gates.passed() ? 0 : 1;
  }

  const int traced_reps = static_cast<int>(traced_eps_cpu.size());
  gates.check(traced_agree,
              "traced and untraced runs agree on experiments, distinct anomalies "
              "and report JSON");
  gates.check(counts_agree && trace.unmatched_inserts() == 0,
              "workload.measure_calls equals the cells' experiments and "
              "core.extractions equals the pool's inserts");

  std::unique_ptr<JournalSide> side;
  if (!spec->journaled) {
    side = std::make_unique<JournalSide>();
    journal_side_run(*spec, campaign_seed(seed, 0), journal_path, side.get());
    gates.check(side->clean, "journal side run recovers to its pool_scopes");
    journal_bytes = side->bytes;
    journal_probes = side->probes;
    recover_s.push_back(side->recover_s);
  }

  std::vector<Metric> layers = layer_metrics(
      trace, traced_reps,
      ratio(static_cast<double>(duplicate_inserts), static_cast<double>(inserts)), audit, recover_s, journal_bytes,
      journal_probes, side.get(), median(traced_eps_cpu), median(eps_cpu));
  // The self-time shares that partition the traced window.
  static const char* const kShares[] = {
      "workload.measure_share",      "core.covers_share",
      "core.extract_share",          "orchestrator.insert_share",
      "orchestrator.report_share",   "journal.share",
      "driver.unattributed_share"};
  double share_sum = 0.0;
  for (const Metric& m : layers) {
    for (const char* share : kShares) {
      if (m.name == share) share_sum += m.value;
    }
  }
  std::printf("\ntraced: %d repetition(s); self-time shares + unattributed = %.12f\n",
              traced_reps, share_sum);
  gates.check(std::abs(share_sum - 1.0) < 1e-9,
              "self-time shares plus driver.unattributed_share sum to 1");
  print_table("per-layer metrics (traced run)", layers);
  print_result_json(gates.passed(), attempted, failed, layers);
  return gates.passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campbench: %s\n", e.what());
    return 2;
  }
}
