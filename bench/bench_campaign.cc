// Campaign scaling bench: the full (subsystem x guidance-mode) grid of the
// paper's Figure 4/5 runs, fanned over 1..8 workers.
//
// Two claims are checked:
//   * serial equivalence — a fixed-seed one-worker campaign reproduces the
//     serial SearchDriver runs of every cell exactly (same experiments,
//     same anomalies, same simulated elapsed time);
//   * scaling — with per-cell budgets fixed, N workers cut the campaign
//     makespan by ~N (speedup >= 3x at 4 workers on the 16-cell grid).
//
// Time is simulated testbed seconds throughout (the same accounting
// core/search uses: every experiment costs 20-60 s of testbed time).  The
// "real ms" column is host wall-clock for the whole campaign run.
//
// Throughput is reported both ways: simulated makespan/speedup (the
// scheduling claim) and real probes/sec wall-clock (the hot-path claim) —
// a parallel-efficiency regression is invisible in simulated time, because
// simulated budgets are fixed per cell no matter how slowly the host
// executes them.
//
//   $ ./bench_campaign [--hours 2] [--seed 1] [--json [file]]
#include <chrono>
#include <cstdio>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/search.h"
#include "harness.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "sim/subsystem.h"

using namespace collie;
using namespace collie::orchestrator;

namespace {

CampaignConfig grid_config(double hours, u64 seed) {
  CampaignConfig config;
  config.subsystems = sim::all_subsystem_ids();
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.budget.seconds = hours * 3600.0;
  config.campaign_seed = seed;
  return config;
}

// Serial baseline: every cell as its own SearchDriver run, exactly as the
// per-subsystem figure benches do it, with the campaign's stream splitting.
std::vector<core::SearchResult> run_serial(const CampaignConfig& config,
                                           const std::vector<CampaignCell>& cells) {
  std::vector<core::SearchResult> results;
  const Rng root(config.campaign_seed);
  for (const CampaignCell& cell : cells) {
    const sim::Subsystem& sys = sim::subsystem(cell.subsystem);
    const workload::Engine engine(sys, config.engine);
    const core::SearchSpace space(sys);
    core::SearchDriver driver(engine, space);
    core::SaConfig sa;
    sa.mode = cell.mode;
    Rng rng = root.split(cell.stream);
    results.push_back(driver.run_simulated_annealing(sa, config.budget, rng));
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double hours = args.get_double("hours", 2.0);
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));

  CampaignConfig config = grid_config(hours, seed);
  const Campaign planner(config);
  const auto cells = planner.plan();
  std::printf("grid: %zu cells (%zu subsystems x %zu modes), %.1f simulated "
              "hours each\n\n",
              cells.size(), config.subsystems.size(), config.modes.size(),
              hours);

  const auto serial = run_serial(config, cells);
  double serial_seconds = 0.0;
  int serial_found = 0;
  for (const auto& r : serial) {
    serial_seconds += r.elapsed_seconds;
    serial_found += static_cast<int>(r.found.size());
  }
  std::printf("serial baseline: %.1f simulated hours, %d anomalies\n\n",
              serial_seconds / 3600.0, serial_found);

  TextTable table({"workers", "makespan (h)", "speedup", "anomalies",
                   "experiments", "real (ms)", "probes/s (wall)"});
  bool equivalence_ok = true;
  double speedup_at_4 = 0.0;
  double wall_probes_1w = 0.0;
  double wall_probes_4w = 0.0;
  double wall_ms_4w = 0.0;
  double makespan_h_4w = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    config.workers = workers;
    config.share = ShareScope::kCell;  // private stores: serial semantics
    Campaign campaign(config);
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult result = campaign.run();
    const auto real_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    int found = 0, experiments = 0;
    for (const auto& cr : result.cells) {
      found += static_cast<int>(cr.result.found.size());
      experiments += cr.result.experiments;
    }
    if (workers == 1) {
      // Serial-equivalence check, cell by cell.
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const core::SearchResult& a = result.cells[i].result;
        const core::SearchResult& b = serial[i];
        if (a.experiments != b.experiments ||
            a.found.size() != b.found.size() ||
            a.elapsed_seconds != b.elapsed_seconds) {
          equivalence_ok = false;
          std::printf("MISMATCH cell %s: experiments %d vs %d, found %zu vs "
                      "%zu\n",
                      cells[i].label().c_str(), a.experiments, b.experiments,
                      a.found.size(), b.found.size());
        } else {
          for (std::size_t f = 0; f < a.found.size(); ++f) {
            if (!(a.found[f].mfs.witness == b.found[f].mfs.witness)) {
              equivalence_ok = false;
              std::printf("MISMATCH cell %s anomaly %zu witness\n",
                          cells[i].label().c_str(), f);
            }
          }
        }
      }
    }
    // Real-time throughput: how many probes the host executed per
    // wall-clock second across the whole fleet.
    const double wall_probes_per_sec =
        real_ms > 0 ? experiments / (static_cast<double>(real_ms) / 1000.0)
                    : 0.0;
    if (workers == 1) wall_probes_1w = wall_probes_per_sec;
    if (workers == 4) {
      speedup_at_4 = result.speedup();
      wall_probes_4w = wall_probes_per_sec;
      wall_ms_4w = static_cast<double>(real_ms);
      makespan_h_4w = result.makespan_seconds / 3600.0;
    }
    table.add_row({std::to_string(workers),
                   fmt_double(result.makespan_seconds / 3600.0, 1),
                   fmt_double(result.speedup(), 2), std::to_string(found),
                   std::to_string(experiments), std::to_string(real_ms),
                   fmt_double(wall_probes_per_sec, 0)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("serial equivalence at 1 worker: %s\n",
              equivalence_ok ? "OK" : "FAILED");
  std::printf("speedup at 4 workers: %.2fx (target >= 3x): %s\n\n",
              speedup_at_4, speedup_at_4 >= 3.0 ? "OK" : "FAILED");

  // The shared pool at fleet scale: same grid, subsystem-scoped sharing.
  config.workers = 4;
  config.share = ShareScope::kSubsystem;
  const CampaignResult shared = Campaign(config).run();
  const CampaignReport report = build_report(shared);
  std::printf("shared-pool campaign (4 workers, subsystem scopes)\n%s\n",
              report.render().c_str());

  // Mixed-budget scheduling: budgets alternate {h, h/4} over the grid.
  // Round-robin's stride resonates with the cycle — half the workers
  // collect only the heavy cells — while LPT packs by load.  Cells are
  // bit-identical either way (kCell scopes); only the makespan moves.
  CampaignConfig mixed = grid_config(hours, seed);
  mixed.workers = 4;
  mixed.share = ShareScope::kCell;
  mixed.budget_cycle_seconds = {hours * 3600.0, hours * 900.0};
  TextTable mixed_table({"schedule", "makespan (h)", "speedup",
                         "experiments", "real (ms)", "probes/s (wall)"});
  double rr_makespan = 0.0, lpt_makespan = 0.0;
  for (const SchedulePolicy policy :
       {SchedulePolicy::kRoundRobin, SchedulePolicy::kLpt}) {
    mixed.schedule = policy;
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult result = Campaign(mixed).run();
    const auto real_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    (policy == SchedulePolicy::kLpt ? lpt_makespan : rr_makespan) =
        result.makespan_seconds;
    int mixed_experiments = 0;
    for (const auto& cr : result.cells) {
      mixed_experiments += cr.result.experiments;
    }
    // Real-time throughput alongside the simulated makespan: LPT packing
    // that "wins" in virtual time but executes probes slower than
    // round-robin would regress here and nowhere else.
    const double wall_probes_per_sec =
        real_ms > 0
            ? mixed_experiments / (static_cast<double>(real_ms) / 1000.0)
            : 0.0;
    mixed_table.add_row({to_string(policy),
                         fmt_double(result.makespan_seconds / 3600.0, 2),
                         fmt_double(result.speedup(), 2),
                         std::to_string(mixed_experiments),
                         std::to_string(real_ms),
                         fmt_double(wall_probes_per_sec, 0)});
  }
  std::printf("mixed-budget grid (budgets alternate {%.1f, %.2f} h, 4 "
              "workers)\n%s",
              hours, hours / 4.0, mixed_table.render().c_str());
  const bool lpt_ok = lpt_makespan <= rr_makespan;
  std::printf("LPT vs round-robin makespan: %.2fx better: %s\n\n",
              rr_makespan / lpt_makespan, lpt_ok ? "OK" : "FAILED");

  // Fabric-scenario sweep: the same subsystem searched under the paper's
  // pair, the heterogeneous-rate pair and the 4:1 ToR fan-in, as campaign
  // dimensions (per-scenario coverage in the report).
  CampaignConfig fabric_config;
  fabric_config.subsystems = {'F'};
  fabric_config.fabrics = {"pair", "hetero", "fanin4"};
  fabric_config.budget.seconds = hours * 3600.0;
  fabric_config.campaign_seed = seed;
  fabric_config.workers = 3;
  const CampaignResult fabric_result = Campaign(fabric_config).run();
  const CampaignReport fabric_report = build_report(fabric_result);
  std::printf("fabric-scenario campaign (subsystem F x {pair, hetero, "
              "fanin4})\n%s\n",
              fabric_report.render().c_str());

  // Perf trajectory: the "campaign" section of BENCH_hotpath.json.
  if (args.has("json")) {
    std::string path = args.get("json", "");
    if (path.empty() || path == "true") path = benchjson::kDefaultPath;
    benchjson::Section campaign_metrics;
    campaign_metrics["workers"] = 4.0;
    campaign_metrics["grid_hours_per_cell"] = hours;
    campaign_metrics["wall_ms_4w"] = wall_ms_4w;
    campaign_metrics["makespan_hours_4w"] = makespan_h_4w;
    campaign_metrics["simulated_speedup_4w"] = speedup_at_4;
    campaign_metrics["wall_probes_per_sec_1w"] = wall_probes_1w;
    campaign_metrics["wall_probes_per_sec_4w"] = wall_probes_4w;
    campaign_metrics["parallel_efficiency_4w"] =
        wall_probes_1w > 0.0 ? wall_probes_4w / wall_probes_1w / 4.0 : 0.0;
    campaign_metrics["lpt_makespan_hours"] = lpt_makespan / 3600.0;
    campaign_metrics["rr_makespan_hours"] = rr_makespan / 3600.0;
    if (benchjson::write_section(path, "campaign", campaign_metrics)) {
      std::printf("wrote \"campaign\" section of %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  return (equivalence_ok && speedup_at_4 >= 3.0 && lpt_ok) ? 0 : 1;
}
