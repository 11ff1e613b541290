// Figure 5: ablation of Collie's two accelerators on subsystem F —
// diagnostic counters vs performance counters, with and without the MFS
// skip.  Four series: Collie w/o MFS (Perf), Collie w/o MFS (Diag),
// Collie (Perf), Collie (Diag).
//
// Expected shape (paper): performance counters alone already find most
// anomalies; diagnostic counters find more and faster (notably the #7/#8
// family, where throughput gives no gradient but the ICM miss counters do);
// MFS roughly halves the time of either variant.
#include <cstdio>

#include "common/cli.h"
#include "common/table.h"
#include "harness.h"
#include "sim/subsystem.h"

using namespace collie;
using benchharness::TimeToFindStats;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const double minutes = args.get_double("minutes", 600);
  const char sys_id = args.get("sys", "F")[0];

  const sim::Subsystem& sys = sim::subsystem(sys_id);
  const std::string chip = sys.nicm.chip;
  workload::Engine engine(sys);
  core::SearchSpace space(sys);
  core::SearchDriver driver(engine, space);
  core::SearchBudget budget;
  budget.seconds = minutes * 60.0;

  struct Variant {
    const char* name;
    core::GuidanceMode mode;
    bool use_mfs;
    TimeToFindStats stats;
  };
  Variant variants[] = {
      {"Collie w/o MFS(Perf)", core::GuidanceMode::kPerf, false, {}},
      {"Collie w/o MFS(Diag)", core::GuidanceMode::kDiag, false, {}},
      {"Collie(Perf)", core::GuidanceMode::kPerf, true, {}},
      {"Collie(Diag)", core::GuidanceMode::kDiag, true, {}},
  };

  for (int s = 0; s < seeds; ++s) {
    for (auto& v : variants) {
      Rng rng(500 + static_cast<u64>(s));
      core::SaConfig cfg;
      cfg.mode = v.mode;
      cfg.use_mfs = v.use_mfs;
      v.stats.add(benchharness::time_to_find_series(
          driver.run_simulated_annealing(cfg, budget, rng), chip));
    }
    std::fprintf(stderr, "[fig5] seed %d/%d done\n", s + 1, seeds);
  }

  std::printf(
      "Figure 5: mean time (simulated minutes) to find N anomalies on "
      "subsystem %c\n(counter-type and MFS ablation; %d seeds, %.0f-minute "
      "budget)\n\n",
      sys_id, seeds, minutes);
  TextTable t({"anomalies found", variants[0].name, variants[1].name,
               variants[2].name, variants[3].name});
  int max_n = 0;
  for (const auto& v : variants) max_n = std::max(max_n, v.stats.max_found());
  auto cell = [&](const TimeToFindStats& st, int n) -> std::string {
    if (n > st.max_found() || st.seeds_reaching(n) == 0) return "-";
    return fmt_double(st.mean_at(n), 1) + " +/- " +
           fmt_double(st.stddev_at(n), 1);
  };
  for (int n = 1; n <= max_n; ++n) {
    t.add_row({std::to_string(n), cell(variants[0].stats, n),
               cell(variants[1].stats, n), cell(variants[2].stats, n),
               cell(variants[3].stats, n)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Distinct anomalies found: w/oMFS(Perf)=%d w/oMFS(Diag)=%d "
      "Collie(Perf)=%d Collie(Diag)=%d (paper: Diag > Perf, MFS helps "
      "both; Collie(Diag) reaches all 13).\n",
      variants[0].stats.max_found(), variants[1].stats.max_found(),
      variants[2].stats.max_found(), variants[3].stats.max_found());
  return 0;
}
