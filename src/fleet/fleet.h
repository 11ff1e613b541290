// run_loopback_fleet — one-call distributed campaign on the in-process
// transport.
//
// Constructs the Coordinator (which plans the campaign), spawns one
// FleetWorker thread per logical worker of its schedule, runs the
// coordinator on the calling thread, and tears the transport down so every
// thread joins.  With no fault injection the returned CampaignResult is
// byte-identical (report JSON and checkpoint JSON) to Campaign::run() under
// ShareScope::kCell: both start and finish the campaign through the same
// orchestrator steps, and workers run cells through the same execute_cell.
// ctest campaign_fleet and the fleet-smoke CI job `cmp` exactly that.
#pragma once

#include <vector>

#include "fleet/coordinator.h"
#include "fleet/transport.h"
#include "fleet/worker.h"
#include "orchestrator/campaign.h"

namespace collie::fleet {

struct FleetRunOptions {
  FleetOptions coordinator;
  // Transport faults armed before any worker starts.
  std::vector<FaultRule> faults;
  // Fault injection: worker `kill_worker` dies (thread exits without a
  // CellDone) while executing the cell labelled `kill_at_cell` — right
  // after streaming its first extraction, or at cell end if it never
  // extracts.  -1 = nobody dies.
  int kill_worker = -1;
  std::string kill_at_cell;
  // Fault injection: worker `slow_worker` sleeps this long per probe (wall
  // clock), making it the steal victim.  -1 = nobody is slow.
  int slow_worker = -1;
  i64 slow_probe_us = 0;
};

struct FleetRunResult {
  orchestrator::CampaignResult campaign;
  FleetStats stats;
  // Transport-level tallies (what the fault layer actually did).
  i64 delivered = 0;
  i64 dropped = 0;
  i64 duplicated = 0;
  i64 delayed = 0;
};

// Run `config` as a loopback fleet.  The worker count is the coordinator's
// schedule's logical worker count (config.workers under round-robin/LPT,
// the recorded schedule's under replay).  Throws what Coordinator::run throws (stall,
// invalid config).
FleetRunResult run_loopback_fleet(orchestrator::CampaignConfig config,
                                  FleetRunOptions opts = {});

}  // namespace collie::fleet
