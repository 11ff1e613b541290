// The benchmark's workloads: fixed campaign grids whose only input is the
// campaign seed.  Every workload runs single-threaded and closed-loop
// (ExecutionMode::kDeterministic, one worker: each cell's next probe waits
// for the previous one) with the functional verbs pass off, as campaigns
// run by default.
#pragma once

#include <string>
#include <vector>

#include "orchestrator/campaign.h"

namespace campbench {

struct WorkloadSpec {
  std::string name;
  std::string why;  // one line: what the workload stresses
  std::vector<std::string> fabrics;
  std::vector<std::string> ccs;
  collie::orchestrator::ShareScope share =
      collie::orchestrator::ShareScope::kCell;
  int seeds_per_cell = 1;
  double hours = 10.0;  // simulated testbed hours per cell
  // Wrap the campaign in a CampaignJournal + SpliceBackendFactory exactly
  // as `campaign --journal` does.
  bool journaled = false;
};

// Journal fsync cadence of journaled workloads: the CLI's default.
inline constexpr int kJournalEvery = 64;

// A seed kept out of every tuning run: a later gain claim must also hold
// on it.
inline constexpr collie::u64 kHeldOutSeed = 104729;

// One run of a workload covers this many campaigns, with seeds
// campaign_seed(seed, 0..kCampaignsPerRun-1): what a single campaign finds
// varies from seed to seed, and the average over several varies less.
inline constexpr int kCampaignsPerRun = 4;
inline constexpr collie::u64 campaign_seed(collie::u64 seed, int k) {
  return seed * kCampaignsPerRun + static_cast<collie::u64>(k);
}

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// The campaign config of one run of `spec` (no journal or backend factory
// attached yet).
collie::orchestrator::CampaignConfig make_config(const WorkloadSpec& spec,
                                                 collie::u64 seed);

}  // namespace campbench
