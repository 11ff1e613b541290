// FleetWorker: one fleet executor.
//
// An executor owns no campaign state: it waits for LeaseCell messages and
// runs each leased cell as the lease's logical worker through the exact
// execute_cell path the in-process campaign uses (same RNG split, same
// engine options, same MatchMFS store semantics against an executor-local
// pool preloaded from the lease), then reports the finished cell and every
// MFS it inserted as a CellDone it retransmits until the coordinator Acks.
// Heartbeats flow whenever the executor is idle and from inside the probe
// loop while a cell runs, so a dead executor is one that went silent — not
// merely one that is busy.
//
// Fault injection (tests / demos only): `dies_on` makes the executor die
// silently after running a cell, before its CellDone.
#pragma once

#include <chrono>
#include <functional>
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
  // Fault injection: true for a leased cell this executor dies on.
  std::function<bool(const orchestrator::CampaignCell&)> dies_on;
};

class FleetWorker {
 public:
  // `config` is the same campaign config the coordinator plans from (shared
  // read-only; the executor derives each cell's RNG from
  // config.campaign_seed and the leased cell's stream index).
  FleetWorker(int id, const orchestrator::CampaignConfig& config,
              Transport* transport, WorkerOptions opts = {});

  // Message loop; returns on a shutdown lease or a closed transport (false)
  // or an injected death (true).
  bool run();

  int id() const { return id_; }

 private:
  // Busy (mid-cell) heartbeat for a lease, idle for lease 0.
  void heartbeat(u64 lease, i64 probes);
  void send(Message m);
  // Execute a lease end to end (blocking) and stage the CellDone; false
  // when the executor dies on it instead (fault injection).
  bool run_lease(const Message& lease);

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
