// Developer tool: short end-to-end searches on subsystem F, printing the
// distinct ground-truth anomalies each strategy finds.  Calibration aid for
// the Figure 4/5 harnesses.
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog/anomalies.h"
#include "common/cli.h"
#include "core/search.h"
#include "sim/subsystem.h"

using namespace collie;

namespace {

void report(const char* name, const core::SearchResult& r,
            const core::SearchSpace& space, const std::string& chip,
            bool dump) {
  std::set<int> ids;
  int unlabeled = 0;
  for (const auto& f : r.found) {
    const int id = catalog::identify(chip, "pair", f.mfs.witness, f.dominant,
                                     catalog::to_catalog(f.mfs.symptom));
    if (id == 0) {
      ++unlabeled;
    } else {
      ids.insert(id);
    }
  }
  std::printf("%-18s experiments=%5d elapsed=%6.1f min  skips=%4d  distinct=%zu  unlabeled=%d  ids=[",
              name, r.experiments, r.elapsed_seconds / 60.0, r.mfs_skips,
              ids.size(), unlabeled);
  for (int id : ids) std::printf("%d ", id);
  std::printf("]\n");
  if (dump) {
    for (const auto& f : r.found) {
      std::printf("  @%5.0fmin dominant=%s witness=%s\n%s\n",
                  f.found_at_seconds / 60.0, to_string(f.dominant),
                  f.mfs.witness.describe().c_str(),
                  f.mfs.describe(space).c_str());
    }
  }
  std::fflush(stdout);
}

constexpr CliFlag kFlags[] = {
    {"sys", "<id>", "F", "subsystem letter"},
    {"minutes", "<m>", "600", "simulated search budget per strategy"},
    {"seed", "<s>", "1", "rng seed shared by every strategy"},
    {"dump", nullptr, nullptr, "print every found MFS with its witness"},
    {"help", nullptr, nullptr, "print this reference and exit"},
};

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv, kFlags);
  if (args.has("help")) {
    std::fputs(cli_usage("usage: search_probe [flags]\n", kFlags).c_str(),
               stdout);
    return 0;
  }
  // A typo ("--minute 360") must not silently run the default budget.
  args.reject_unknown();
  const double minutes = args.get_double("minutes");
  const u64 seed = static_cast<u64>(args.get_int("seed"));
  std::vector<std::string> letters;
  for (const char c : sim::all_subsystem_ids()) letters.emplace_back(1, c);
  const char sys_id = args.get_choice("sys", letters)[0];
  const bool dump = args.get_bool("dump");

  const sim::Subsystem& sys = sim::subsystem(sys_id);
  const std::string chip = sys.nicm.chip;
  workload::Engine engine(sys);
  core::SearchSpace space(sys);
  core::SearchDriver driver(engine, space);
  core::SearchBudget budget;
  budget.seconds = minutes * 60.0;

  {
    Rng rng(seed);
    report("random", driver.run_random(budget, rng), space, chip, dump);
  }
  {
    Rng rng(seed);
    core::SaConfig cfg;
    cfg.mode = core::GuidanceMode::kDiag;
    report("collie(diag)", driver.run_simulated_annealing(cfg, budget, rng),
           space, chip, dump);
  }
  {
    Rng rng(seed);
    core::SaConfig cfg;
    cfg.mode = core::GuidanceMode::kPerf;
    report("collie(perf)", driver.run_simulated_annealing(cfg, budget, rng),
           space, chip, dump);
  }
  {
    Rng rng(seed);
    core::SaConfig cfg;
    cfg.use_mfs = false;
    report("sa-no-mfs(diag)",
           driver.run_simulated_annealing(cfg, budget, rng), space, chip, dump);
  }
  {
    Rng rng(seed);
    report("bo", driver.run_bayesian_optimization(budget, rng), space, chip,
           dump);
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
