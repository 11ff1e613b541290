// run_loopback_fleet — one-call distributed campaign on the in-process
// transport.
//
// Constructs the Coordinator (which plans the campaign), spawns one
// executor thread per logical worker of its schedule (at most one per cell
// still to run), runs the coordinator on the calling thread, and tears the
// transport down so every thread joins.  Under either share scope the
// returned CampaignResult is byte-identical (report JSON and checkpoint
// JSON) to Campaign::run()'s, with or without faults: both start and
// finish the campaign through the same orchestrator steps, both run each
// scope chain's cells in order, executors run each cell as its logical
// worker through the same execute_cell, and faults only move cells between
// executors.  ctest campaign_fleet and the fleet-smoke CI job `cmp`
// exactly that.
#pragma once

#include <string>
#include <vector>

#include "fleet/coordinator.h"
#include "fleet/transport.h"
#include "fleet/worker.h"
#include "orchestrator/campaign.h"

namespace collie::fleet {

struct FleetRunOptions {
  FleetOptions coordinator;
  // Transport faults armed before any executor starts.
  std::vector<FaultRule> faults;
  // Fault injection: the first executor to run the plan cell with this
  // label dies before reporting it, stays down for four heartbeat timeouts
  // but at most half the stall timeout (so the coordinator declares it dead
  // and re-queues the cell), then restarts on the same endpoint and
  // reconnects.  Empty = nobody dies; a label naming no plan cell never
  // fires (the campaign CLI rejects one).
  std::string kill_at_cell;
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

// Run `config` as a loopback fleet.  The executor count is the
// coordinator's schedule's logical worker count (config.workers under
// round-robin/LPT, the recorded schedule's under replay), capped at the
// number of cells still to run.  Throws
// std::invalid_argument when kill_at_cell is set with a heartbeat timeout
// of a quarter of the stall timeout or more (the stall guard could fire
// while the killed executor is down), and what Coordinator::run throws
// (stall, invalid config).
FleetRunResult run_loopback_fleet(orchestrator::CampaignConfig config,
                                  FleetRunOptions opts = {});

}  // namespace collie::fleet
