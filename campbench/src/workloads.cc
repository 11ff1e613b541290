#include "workloads.h"

#include "sim/subsystem.h"

namespace campbench {

using namespace collie;
using namespace collie::orchestrator;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    {
      WorkloadSpec s;
      s.name = "pair_grid";
      s.why =
          "the paper's headline search: sim epoch rollout and MFS extraction "
          "dominate, pool scopes stay small, no journal";
      s.fabrics = {"pair"};
      s.ccs = {"off"};
      s.share = ShareScope::kCell;
      s.seeds_per_cell = 4;
      w.push_back(s);
    }
    {
      WorkloadSpec s;
      s.name = "cc_fabric";
      s.why =
          "DCQCN co-simulation on hetero/fanin4 fabrics with subsystem-shared "
          "pools: costly probes, large MatchMFS scopes and inserts";
      s.fabrics = {"hetero", "fanin4"};
      s.ccs = {"dcqcn", "mistuned"};
      s.share = ShareScope::kSubsystem;
      s.seeds_per_cell = 1;
      s.hours = 2.5;
      w.push_back(s);
    }
    {
      WorkloadSpec s;
      s.name = "journaled_grid";
      s.why =
          "pair_grid cells under a durable journal at the default cadence: "
          "journal records dominate, sim speedups are bypassed";
      s.fabrics = {"pair"};
      s.ccs = {"off"};
      s.share = ShareScope::kCell;
      s.seeds_per_cell = 1;
      s.hours = 1.25;
      s.journaled = true;
      w.push_back(s);
    }
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

CampaignConfig make_config(const WorkloadSpec& spec, u64 seed) {
  CampaignConfig config;
  config.subsystems = sim::all_subsystem_ids();
  config.fabrics = spec.fabrics;
  config.ccs = spec.ccs;
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.seeds_per_cell = spec.seeds_per_cell;
  config.workers = 1;
  config.campaign_seed = seed;
  config.share = spec.share;
  config.execution = ExecutionMode::kDeterministic;
  config.budget.seconds = spec.hours * 3600.0;
  config.engine.run_functional_pass = false;
  return config;
}

}  // namespace campbench
