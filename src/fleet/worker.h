// FleetWorker: one leased-cell executor.
//
// A worker owns no campaign state: it waits for LeaseCell messages, runs
// each leased cell through the exact execute_cell path the in-process
// campaign uses (same RNG split, same engine options, same MatchMFS store
// semantics against a worker-local pool preloaded from the lease), streams
// every fresh MFS extraction back as an ordinal-numbered MfsBatch, and
// reports the finished cell as a CellDone it retransmits until the
// coordinator Acks.  Heartbeats flow whenever the worker is idle and from
// inside the probe loop while a cell runs, so a dead worker is one that
// went silent — not merely one that is busy.
//
// Fault injection (tests / demos only): kill_at_cell makes the worker die
// silently mid-cell — right after streaming its first MfsBatch when the
// cell extracts anything, at cell end otherwise — without sending CellDone;
// slow_probe_us stretches every MatchMFS consult by a wall-clock sleep to
// emulate a slow host for the coordinator's steal logic.
#pragma once

#include <chrono>
#include <string>

#include "fleet/messages.h"
#include "fleet/transport.h"
#include "orchestrator/campaign.h"

namespace collie::fleet {

// Unacked CellDone retransmit cadence.
inline constexpr std::chrono::milliseconds kCellDoneRetransmit{50};

struct WorkerOptions {
  // Idle-heartbeat cadence, and the floor between mid-cell heartbeats.
  std::chrono::milliseconds heartbeat_interval{20};
  // Fault injection: die silently while running the cell with this label.
  std::string kill_at_cell;
  // Fault injection: wall-clock microseconds added per MatchMFS consult.
  i64 slow_probe_us = 0;
};

class FleetWorker {
 public:
  // `config` is the same campaign config the coordinator plans from (shared
  // read-only; the worker derives each cell's RNG from config.campaign_seed
  // and the leased cell's stream index).
  FleetWorker(int id, const orchestrator::CampaignConfig& config,
              Transport* transport, WorkerOptions opts = {});

  // Message loop; returns on a shutdown lease, a closed transport, or an
  // injected kill.
  void run();

  int id() const { return id_; }

 private:
  // Busy (mid-cell) heartbeat for a lease, idle for lease 0.
  void heartbeat(u64 lease, i64 probes);
  void send(Message m);
  // Execute a lease end to end (blocking) and stage the CellDone.
  void run_lease(const Message& lease);

  int id_;
  const orchestrator::CampaignConfig& config_;
  Transport* transport_;
  WorkerOptions opts_;
  u64 seq_ = 0;

  // The last completed lease and its CellDone payload, retransmitted until
  // the coordinator Acks (or re-announces the lease).
  u64 done_lease_ = 0;
  std::string done_payload_;
  bool done_acked_ = true;
  std::chrono::steady_clock::time_point done_sent_{};
};

}  // namespace collie::fleet
