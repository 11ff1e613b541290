// Campaign CLI: fan a fleet of search workers over a (subsystem x
// guidance-mode x seed) grid with a shared MFS pool, then print the
// aggregated report.  Run with --help for the flag reference.  Flags and
// the rules between them live in orchestrator/invocation.h; this program
// reads the files an invocation names, runs the campaign and writes its
// outputs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/durable_io.h"
#include "core/json_reader.h"
#include "obs/telemetry.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/invocation.h"
#include "orchestrator/journal.h"

using namespace collie;
using namespace collie::orchestrator;

namespace {

// Every file this CLI emits goes through durable_io::atomic_write (temp
// file + fsync + rename), so a reader sees the old document or the new
// one, never a torn middle.  A checkpoint therefore only tears by other
// means, and --warm-start rejects it with the strict parser's byte offset.
bool write_file(const std::string& path, const std::string& content) {
  return durable_io::atomic_write(path, content + "\n");
}

int fail(int code, const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = parse_campaign_invocation({argv + 1, argv + argc});
  if (const auto* err = std::get_if<InvocationError>(&parsed)) {
    return fail(err->exit_code, err->message);
  }
  CampaignInvocation& inv = std::get<CampaignInvocation>(parsed);
  if (inv.help) {
    std::fputs(campaign_usage().c_str(), stdout);
    return 0;
  }
  CampaignConfig& config = inv.config;

  if (!inv.warm_start_path.empty()) {
    std::string text;
    if (!durable_io::read_file(inv.warm_start_path, &text)) {
      return fail(2, "cannot read warm-start checkpoint '" +
                         inv.warm_start_path + "'");
    }
    try {
      config.warm_start = CampaignCheckpoint::from_json(text);
    } catch (const core::JsonError& e) {
      return fail(2, "bad checkpoint '" + inv.warm_start_path + "': " +
                         e.what());
    }
  }

  // --replay <journal> re-runs a recording offline and only reads it (a
  // torn tail stays in place).  --journal streams records as the campaign
  // executes, repairing the file for appending; with --resume it first
  // re-executes the journaled schedule and splices each half-finished cell
  // onto its journaled probe prefix.
  const bool replaying = !inv.replay_path.empty();
  JournalResume recording;
  std::unique_ptr<CampaignJournal> journal;
  if (replaying || !inv.journal_path.empty()) {
    const std::string& path = replaying ? inv.replay_path : inv.journal_path;
    const JournalRecovery rec = recover_journal(path, /*repair=*/!replaying);
    if (!rec.error.empty() || (replaying && !rec.existed)) {
      return fail(2, (replaying ? "cannot read journal '"
                                : "cannot recover journal '") +
                         path + "'" +
                         (rec.error.empty() ? "" : ": " + rec.error));
    }
    if (rec.torn) {
      std::fprintf(stderr, "journal %s: torn past byte %llu/%llu, %s%s\n",
                   path.c_str(),
                   static_cast<unsigned long long>(rec.valid_bytes),
                   static_cast<unsigned long long>(rec.total_bytes),
                   replaying ? "replaying the valid prefix"
                             : "quarantined suffix to ",
                   replaying ? "" : rec.torn_path.c_str());
    }
    if (replaying || inv.resume) {
      if (auto err = adopt_journal(replaying ? "--replay" : "--resume", path,
                                   rec, &config, &recording)) {
        return fail(err->exit_code, err->message);
      }
    } else if (!rec.payloads.empty()) {
      return fail(2, "journal '" + path + "' already holds " +
                         std::to_string(rec.payloads.size()) +
                         " record(s): pass --resume to continue it, or "
                         "remove the file to start over");
    }
    if (inv.resume) {
      std::fprintf(stderr,
                   "resuming journal %s: %zu completed cell(s), %lld "
                   "journaled probe(s), session %d\n",
                   path.c_str(), recording.completed.size(),
                   static_cast<long long>(recording.probes),
                   recording.sessions + 1);
    }
    if (!replaying) {
      try {
        journal = std::make_unique<CampaignJournal>(
            path, inv.journal_every, inv.crash_after_probes,
            inv.crash_at_journal_byte);
      } catch (const std::runtime_error& e) {
        return fail(2, e.what());
      }
      config.journal = journal.get();
      // The fleet journals through its coordinator instead, and re-runs
      // in-flight cells from scratch on resume.
      if (inv.fleet == 0) {
        config.backend_factory = std::make_shared<SpliceBackendFactory>(
            nullptr, config.resume, journal.get());
      }
    }
  }

  std::unique_ptr<obs::Telemetry> telemetry;
  if (!inv.metrics_path.empty() || inv.stats) {
    obs::TelemetryOptions topts;
    topts.workers = config.workers;
    telemetry = std::make_unique<obs::Telemetry>(topts);
    config.telemetry = telemetry.get();
  }

  // Config validation (duplicate grid entries, bad budgets) throws from
  // the constructor: reject loudly instead of crashing.
  std::unique_ptr<Campaign> campaign;
  try {
    campaign = std::make_unique<Campaign>(config);
  } catch (const std::invalid_argument& e) {
    return fail(2, e.what());
  }
  const std::vector<CampaignCell> cells = campaign->plan();
  const std::string& kill_cell = inv.fleet_options.kill_at_cell;
  if (!kill_cell.empty() &&
      std::none_of(cells.begin(), cells.end(), [&](const CampaignCell& c) {
        return c.label() == kill_cell;
      })) {
    return fail(2, "--kill-worker: cell '" + kill_cell +
                       "' is not in the campaign plan");
  }
  // Status lines go to stderr: stdout carries only the requested output
  // (report tables or JSON, the --functional audit, or the trace CSV).
  std::fprintf(stderr,
               "campaign: %zu cells, %d workers, %s scope, %s execution, %s "
               "schedule, %s backend%s\n",
               cells.size(), campaign->config().workers,
               to_string(config.share),
               inv.fleet > 0 ? "fleet" : "in-process",
               replaying ? "replayed" : to_string(config.schedule),
               replaying ? "journal-replay" : "sim",
               config.warm_start ? ", warm-started" : "");

  // Periodic snapshot thread: rewrites the metrics file every interval so
  // a long campaign can be watched live (`metrics_inspect` on the file).
  std::vector<obs::Snapshot> snapshots;
  std::atomic<bool> sampling_done{false};
  std::thread sampler;
  if (telemetry && inv.metrics_interval > 0) {
    sampler = std::thread([&] {
      const auto interval = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(inv.metrics_interval));
      auto next = std::chrono::steady_clock::now() + interval;
      while (!sampling_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (std::chrono::steady_clock::now() < next) continue;
        next += interval;
        snapshots.push_back(telemetry->snapshot());
        write_file(inv.metrics_path,
                   obs::metrics_document(inv.metrics_interval, snapshots,
                                         *telemetry, nullptr));
      }
    });
  }

  CampaignResult result;
  std::optional<InvocationError> failure;
  try {
    if (inv.fleet > 0) {
      fleet::FleetRunResult fr =
          fleet::run_loopback_fleet(campaign->config(), inv.fleet_options);
      result = std::move(fr.campaign);
      std::fprintf(stderr,
                   "fleet: %d workers, %lld leases, %lld re-queues, %lld "
                   "heartbeat misses, %lld duplicates\n",
                   result.workers, static_cast<long long>(fr.stats.leases),
                   static_cast<long long>(fr.stats.requeues),
                   static_cast<long long>(fr.stats.heartbeat_misses),
                   static_cast<long long>(fr.stats.duplicates));
    } else {
      result = campaign->run();
    }
  } catch (const std::invalid_argument& e) {
    // Warm-start share mismatch, replay drift, a kill the stall guard
    // cannot absorb.
    failure = {2, e.what()};
  } catch (const std::runtime_error& e) {
    failure = {3, e.what()};  // fleet stall: every worker dead
  }
  sampling_done.store(true, std::memory_order_relaxed);
  if (sampler.joinable()) sampler.join();
  if (failure) return fail(failure->exit_code, failure->message);

  // execute_cell turns a diverged or exhausted recording into a failed
  // cell; for a replay that is the whole verdict, so fail the process.
  for (const CellResult& cr : result.cells) {
    if (replaying && cr.failed()) {
      return fail(3, "replay of journal '" + inv.replay_path +
                         "' failed: cell " + cr.cell.label() + ": " +
                         cr.error);
    }
  }

  if (!inv.checkpoint_path.empty()) {
    if (!write_file(inv.checkpoint_path, make_checkpoint(result).to_json())) {
      return fail(2, "cannot write checkpoint '" + inv.checkpoint_path + "'");
    }
    std::fprintf(stderr, "checkpointed %zu pool scopes to %s\n",
                 result.pool_scopes.size(), inv.checkpoint_path.c_str());
  }
  if (inv.trace_csv) {
    std::printf("%s", aggregate_trace_csv(result).c_str());
    return 0;
  }
  const CampaignReport report = build_report(result);
  if (inv.functional) {
    // Before the report, so `--json | tail -1` stays the report.
    std::printf("%s", audit_witnesses(report).render(report).c_str());
  }

  if (telemetry && !inv.metrics_path.empty()) {
    // Final roll-up: one last snapshot appended to the series, and the
    // report with metrics embedded.  Stdout (--json and tables) stays
    // metrics-free so a replayed campaign's output diffs bit-for-bit.
    snapshots.push_back(telemetry->snapshot());
    const std::string report_json = report.to_json(&snapshots.back());
    if (!write_file(inv.metrics_path,
                    obs::metrics_document(inv.metrics_interval, snapshots,
                                          *telemetry, &report_json))) {
      return fail(2, "cannot write metrics to '" + inv.metrics_path + "'");
    }
    std::fprintf(stderr, "wrote %zu metrics snapshot%s to %s\n",
                 snapshots.size(), snapshots.size() == 1 ? "" : "s",
                 inv.metrics_path.c_str());
  }

  if (inv.json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("\n%s", report.render().c_str());
  }
  if (telemetry && inv.stats) {
    std::printf("\n%s", obs::render_stats(telemetry->snapshot()).c_str());
  }
  return 0;
}
