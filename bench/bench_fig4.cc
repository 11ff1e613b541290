// Figure 4: mean running time to find N performance anomalies on subsystem
// F — random input generation vs Bayesian Optimization vs Collie, each with
// a 10-hour (simulated) budget, averaged over several seeds.
//
// Expected shape (paper): random finds only the ~7 simple-condition
// anomalies, BO manages slightly more, Collie finds all 13 and is fastest
// at every N.
#include <cstdio>

#include "harness.h"
#include "common/cli.h"
#include "common/table.h"
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

  TimeToFindStats random_stats;
  TimeToFindStats bo_stats;
  TimeToFindStats collie_stats;

  for (int s = 0; s < seeds; ++s) {
    {
      Rng rng(1000 + static_cast<u64>(s));
      random_stats.add(benchharness::time_to_find_series(
          driver.run_random(budget, rng), chip));
    }
    {
      Rng rng(1000 + static_cast<u64>(s));
      bo_stats.add(benchharness::time_to_find_series(
          driver.run_bayesian_optimization(budget, rng), chip));
    }
    {
      Rng rng(1000 + static_cast<u64>(s));
      core::SaConfig cfg;
      cfg.mode = core::GuidanceMode::kDiag;
      collie_stats.add(benchharness::time_to_find_series(
          driver.run_simulated_annealing(cfg, budget, rng), chip));
    }
    std::fprintf(stderr, "[fig4] seed %d/%d done\n", s + 1, seeds);
  }

  std::printf(
      "Figure 4: mean time (simulated minutes) to find N anomalies on "
      "subsystem %c\n(%d seeds, %.0f-minute budget; '-' = strategy never "
      "finds N anomalies)\n\n",
      sys_id, seeds, minutes);
  TextTable t({"anomalies found", "Random", "BO", "Collie"});
  const int max_n =
      std::max({random_stats.max_found(), bo_stats.max_found(),
                collie_stats.max_found()});
  auto cell = [&](const TimeToFindStats& st, int n) -> std::string {
    if (n > st.max_found() || st.seeds_reaching(n) == 0) return "-";
    return fmt_double(st.mean_at(n), 1) + " +/- " +
           fmt_double(st.stddev_at(n), 1) + " (" +
           std::to_string(st.seeds_reaching(n)) + "s)";
  };
  for (int n = 1; n <= max_n; ++n) {
    t.add_row({std::to_string(n), cell(random_stats, n), cell(bo_stats, n),
               cell(collie_stats, n)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Paper shape check: Random %d, BO %d, Collie %d distinct anomalies "
      "(paper: 7, 8, 13).\n",
      random_stats.max_found(), bo_stats.max_found(),
      collie_stats.max_found());
  return 0;
}
