// fleet::Coordinator — the campaign control plane over a Transport.
//
// The coordinator owns the cell grid and the shared ConcurrentMfsPool;
// workers own nothing but the cell they are currently leasing.  It starts
// and finishes the campaign through the same orchestrator::start_campaign /
// finish_campaign steps Campaign::run uses (same plan, runnable mask,
// schedule, journal begin/resume, pool preload, result assembly), so a
// fault-free loopback fleet report is byte-identical to the in-process one
// under cell scopes by sharing that code.  What is its own: leasing each
// logical worker's queue to the matching fleet worker in order, applying
// the MfsBatch extractions workers stream back, heartbeats, re-queue and
// steal.
//
// Fault tolerance:
//  - Death: a worker that goes silent past heartbeat_timeout is declared
//    dead; its in-flight lease is revoked and the cell re-queued (orphan
//    list, served before any queue).  The revoked lease's streamed MfsBatch
//    entries stay in the pool, so the replacement lease's preload warm-
//    skips every region the dead worker already explained.  A CellDone
//    arriving later under a revoked lease is Acked (to silence the zombie)
//    and discarded — a cell's probes are counted exactly once, from exactly
//    one accepted CellDone.
//  - Reconnect: a dead worker that resumes idle heartbeats is re-admitted
//    after an exponential backoff (kReconnectBackoff * 2^(deaths-1)).
//  - Loss: every message may be dropped, delayed, or duplicated.  Leases
//    are retransmitted (at most every kLeaseRetransmit) when an idle
//    heartbeat contradicts an outstanding lease; CellDone is retransmitted
//    by the worker until Acked; MfsBatch ordinals dedup duplicates and
//    reorder out-of-order arrivals, and the CellDone's full insert list
//    reconciles any batch that never arrived.
//  - Imbalance: an idle worker with nothing queued steals the tail of the
//    busiest live worker's queue once that worker has been busy on a single
//    cell past steal_after (wall clock, not simulated time — this is the
//    host-speed imbalance the LPT schedule cannot see).
#pragma once

#include <chrono>
#include <deque>
#include <map>
#include <vector>

#include "fleet/messages.h"
#include "fleet/transport.h"
#include "orchestrator/campaign.h"

namespace collie::fleet {

// Event-loop poll quantum: the coordinator's recv timeout between timer
// checks.
inline constexpr std::chrono::milliseconds kPollTick{5};
// Re-admission backoff after a worker's k-th death: kReconnectBackoff *
// 2^(k-1).
inline constexpr std::chrono::milliseconds kReconnectBackoff{50};
// Lease retransmit floor when an idle heartbeat contradicts a lease.
inline constexpr std::chrono::milliseconds kLeaseRetransmit{50};

struct FleetOptions {
  // Worker idle-heartbeat cadence (handed to spawned loopback workers).
  std::chrono::milliseconds heartbeat_interval{20};
  // Silence past this declares a worker dead.
  std::chrono::milliseconds heartbeat_timeout{250};
  // Steal gate: the victim must have been busy on one cell at least this
  // long (wall clock).  High enough that fault-free fast runs never steal,
  // keeping them byte-identical to the in-process campaign.
  std::chrono::milliseconds steal_after{1000};
  // Hard failure when no cell completes for this long (prevents a hung CI
  // job when every worker is dead and none reconnects).
  std::chrono::milliseconds stall_timeout{120000};
};

struct FleetStats {
  i64 leases = 0;             // LeaseCell messages granting a cell
  i64 requeues = 0;           // cells re-queued after a worker death
  i64 heartbeat_misses = 0;   // workers declared dead
  i64 reconnects = 0;         // dead workers re-admitted
  i64 stolen = 0;             // queued cells stolen from slow workers
  i64 batches = 0;            // MfsBatch applications into the pool
  i64 duplicates = 0;         // duplicate CellDone/MfsBatch payloads ignored
  i64 bad_messages = 0;       // payloads that failed strict parsing
};

class Coordinator {
 public:
  // `config` is normalized through Campaign's constructor (same validation
  // as the in-process path).  Starts the campaign: plans it, writes the
  // journal's begin record or resume marker and preloads the pool.
  explicit Coordinator(orchestrator::CampaignConfig config,
                       FleetOptions opts = {});

  // Drive the whole campaign over `transport` (one endpoint per logical
  // worker, outliving run()); returns when every runnable cell has exactly
  // one accepted result.  Sends a shutdown lease to every worker before
  // returning.  Call once.  Throws std::runtime_error on stall.
  orchestrator::CampaignResult run(Transport* transport);

  // The normalized config workers must run cells under.
  const orchestrator::CampaignConfig& config() const { return config_; }
  // Logical workers of the realized schedule: the fleet's size.
  int workers() const { return result_.workers; }
  const FleetStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkerState {
    std::deque<std::size_t> queue;  // plan indices not yet leased
    double timeline = 0.0;          // virtual seconds of accepted cells
    bool alive = false;             // first message flips this on
    bool busy = false;
    u64 lease = 0;  // outstanding lease id (0 = none)
    int deaths = 0;
    Clock::time_point last_heard{};
    Clock::time_point busy_since{};
    Clock::time_point lease_sent{};
    Clock::time_point reconnect_at{};
  };

  struct LeaseState {
    int worker = -1;
    std::size_t cell = 0;
    std::string scope;
    double start_seconds = 0.0;
    u64 next_ordinal = 0;  // next insert ordinal to apply, in order
    std::map<u64, orchestrator::PoolEntry> buffered;  // out-of-order batches
    bool accepted = false;
    bool revoked = false;
  };

  void send(int to, Message m);
  void grant(int worker, std::size_t cell_index, Clock::time_point now);
  // (Re)send `worker`'s outstanding lease, preloaded from the pool.
  void send_lease(int worker, Clock::time_point now);
  void handle(const Message& m, int from, Clock::time_point now);
  // `reconcile` marks the CellDone's full insert list: already-applied
  // ordinals are expected there and not counted as duplicates.
  void apply_inserts(LeaseState& ls, u64 first_ordinal,
                     const std::vector<orchestrator::PoolEntry>& entries,
                     bool reconcile = false);
  void check_deaths(Clock::time_point now);
  void assign_work(Clock::time_point now);
  void count(i64 FleetStats::* field, obs::CounterId obs::FleetIds::* id);

  orchestrator::CampaignConfig config_;
  Transport* transport_ = nullptr;
  FleetOptions opts_;
  FleetStats stats_;

  std::vector<orchestrator::CampaignCell> cells_;
  orchestrator::ConcurrentMfsPool pool_;
  // Summed hit/duplicate observations from accepted CellDones' worker-local
  // pools (the coordinator pool never serves a search): finish_campaign's
  // live delta.
  orchestrator::PoolStats delta_;
  std::vector<WorkerState> workers_;
  std::map<u64, LeaseState> leases_;
  std::deque<std::size_t> orphans_;  // re-queued cells, served first
  // start_campaign's skeleton (schedule included); accepted CellDones fill
  // its cells.
  orchestrator::CampaignResult result_;
  std::size_t completed_ = 0;
  std::size_t target_ = 0;
  u64 next_lease_ = 1;
  u64 seq_ = 0;
};

}  // namespace collie::fleet
