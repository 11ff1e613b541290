// fleet::Coordinator — the campaign control plane over a Transport.
//
// The coordinator owns the cell grid and the shared ConcurrentMfsPool;
// executors own nothing but the cell they are currently leasing.  It starts
// and finishes the campaign through the same orchestrator::start_campaign /
// finish_campaign steps Campaign::run uses (same plan, runnable mask,
// schedule, journal begin/resume, pool preload, timeline walk, result
// assembly).  What is its own: one ready list of cells in dispatch_order
// that any idle live executor pulls from, heartbeats and re-queues.
//
// The cell is the fleet's only unit of work and of MFS knowledge.  Each
// lease names the schedule's logical worker of its cell, and the executor
// runs the cell as that worker (pool-view origin and CellResult::worker),
// preloaded with the scope's warm-start entries and the inserts of every
// cell accepted so far.  Inserts reach the coordinator only inside an
// accepted CellDone, and a cell joins the ready list only once its
// predecessor in its scope chain (orchestrator::scope_chains) is accepted.
// So every preload is exactly what the single-thread run shows the cell,
// and a cell's result depends on its cell, RNG stream and preload alone,
// never on which executor ran it or how often it was leased: under either
// share scope a fleet report is the in-process one under any fault.
//
// Fault tolerance decides only *where* a cell runs:
//  - Death: an executor that goes silent past heartbeat_timeout is declared
//    dead; its in-flight lease is revoked and the cell goes back to the
//    ready list at its dispatch position.  A CellDone arriving later under a
//    revoked lease is Acked (to silence the zombie) and discarded — a cell's
//    probes are counted exactly once, from exactly one accepted CellDone.
//  - Reconnect: a dead executor that resumes idle heartbeats is re-admitted
//    after an exponential backoff (kReconnectBackoff * 2^(deaths-1)).
//  - Loss: every message may be dropped, delayed, or duplicated.  Leases
//    are retransmitted (at most every kLeaseRetransmit) when an idle
//    heartbeat contradicts an outstanding lease; CellDone is retransmitted
//    by the executor until Acked; a duplicate CellDone is Acked and ignored.
//
// The coordinator journals only the campaign's begin record (or resume
// marker) and each accepted cell_done.
#pragma once

#include <chrono>
#include <map>
#include <set>
#include <vector>

#include "fleet/messages.h"
#include "fleet/transport.h"
#include "orchestrator/campaign.h"

namespace collie::fleet {

// Event-loop poll quantum: the coordinator's recv timeout between timer
// checks.
inline constexpr std::chrono::milliseconds kPollTick{5};
// Re-admission backoff after an executor's k-th death: kReconnectBackoff *
// 2^(k-1).
inline constexpr std::chrono::milliseconds kReconnectBackoff{50};
// Lease retransmit floor when an idle heartbeat contradicts a lease.
inline constexpr std::chrono::milliseconds kLeaseRetransmit{50};

struct FleetOptions {
  // Executor idle-heartbeat cadence (handed to spawned loopback executors).
  std::chrono::milliseconds heartbeat_interval{20};
  // Silence past this declares an executor dead.
  std::chrono::milliseconds heartbeat_timeout{250};
  // Hard failure when no cell completes for this long (prevents a hung CI
  // job when every executor is dead and none reconnects).
  std::chrono::milliseconds stall_timeout{120000};
};

struct FleetStats {
  i64 leases = 0;            // LeaseCell messages granting a cell
  i64 requeues = 0;          // cells re-queued after an executor death
  i64 heartbeat_misses = 0;  // executors declared dead
  i64 reconnects = 0;        // dead executors re-admitted
  i64 duplicates = 0;        // duplicate or revoked CellDones ignored
  i64 bad_messages = 0;      // payloads that failed strict parsing
};

class Coordinator {
 public:
  // `config` is normalized through Campaign's constructor (same validation
  // as the in-process path).  Starts the campaign: plans it, writes the
  // journal's begin record or resume marker and preloads the pool.
  explicit Coordinator(orchestrator::CampaignConfig config,
                       FleetOptions opts = {});

  // Drive the whole campaign over `transport` (its executors() endpoints
  // are the executors; it outlives run()); returns when every runnable cell
  // has exactly one accepted result.  Sends a shutdown lease to every
  // executor before returning.  Call once.  Throws std::runtime_error on
  // stall.
  orchestrator::CampaignResult run(Transport* transport);

  // The normalized config executors must run cells under.
  const orchestrator::CampaignConfig& config() const { return config_; }
  // Logical workers of the realized schedule.
  int workers() const { return result_.workers; }
  // Cells still to run: more executors than this never get a lease.
  std::size_t pending_cells() const { return order_.size() - completed_; }
  const FleetStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct ExecutorState {
    bool alive = false;  // first message flips this on
    u64 lease = 0;       // outstanding lease id (0 = idle)
    int deaths = 0;
    Clock::time_point last_heard{};
    Clock::time_point lease_sent{};
    Clock::time_point reconnect_at{};
  };

  struct LeaseState {
    std::size_t rank = 0;  // the cell's position in dispatch order
    bool accepted = false;
    bool revoked = false;
  };

  void send(int to, Message m);
  // (Re)send `executor`'s outstanding lease, preloaded from the pool.
  void send_lease(int executor, Clock::time_point now);
  void handle(const Message& m, int from, Clock::time_point now);
  void check_deaths(Clock::time_point now);
  // Lease the earliest ready cell to every idle live executor.
  void assign_work(Clock::time_point now);
  void count(i64 FleetStats::* field, obs::CounterId obs::FleetIds::* id);

  orchestrator::CampaignConfig config_;
  Transport* transport_ = nullptr;
  FleetOptions opts_;
  FleetStats stats_;

  std::vector<orchestrator::CampaignCell> cells_;
  orchestrator::ConcurrentMfsPool pool_;
  // Summed hit/duplicate observations from accepted CellDones' executor-
  // local pools (the coordinator pool never serves a search):
  // finish_campaign's live delta.
  orchestrator::PoolStats delta_;
  // Plan indices in dispatch_order, and each plan cell's logical worker.
  std::vector<std::size_t> order_;
  std::vector<int> worker_of_;
  // Ranks (positions in order_) of the cells waiting for an executor.
  std::set<std::size_t> ready_;
  // Per rank: the rank of the next cell of its scope chain still to run,
  // which joins ready_ when this one is accepted; kNoRank ends a chain.
  static constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);
  std::vector<std::size_t> next_in_chain_;
  std::vector<ExecutorState> executors_;
  std::map<u64, LeaseState> leases_;
  // start_campaign's skeleton (schedule included); accepted CellDones fill
  // its cells.
  orchestrator::CampaignResult result_;
  std::size_t completed_ = 0;
  u64 next_lease_ = 1;
  u64 seq_ = 0;
};

}  // namespace collie::fleet
