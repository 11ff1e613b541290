#include "fleet/worker.h"

#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "common/log.h"
#include "core/json_reader.h"

namespace collie::fleet {

namespace {

using Clock = std::chrono::steady_clock;

// Injected worker death.  Deliberately NOT derived from std::exception:
// execute_cell converts std::exceptions into failed-cell results, but a
// killed worker must vanish mid-cell without producing any result at all.
struct Killed {};

// The MfsStore a leased cell searches against: every consult delegates to
// the worker-local pool view (so MatchMFS semantics — hit attribution,
// duplicate accounting, first-cover order — are exactly the in-process
// campaign's), and every fresh insert is handed to the worker for streaming
// back to the coordinator as an ordinal-numbered MfsBatch.
class StreamingStore final : public core::MfsStore {
 public:
  StreamingStore(orchestrator::ConcurrentMfsPool::View* view, int origin,
                 std::function<void(u64, const orchestrator::PoolEntry&)>
                     on_insert,
                 std::function<void(i64)> on_tick)
      : view_(view),
        origin_(origin),
        on_insert_(std::move(on_insert)),
        on_tick_(std::move(on_tick)) {}

  bool covers(const core::SearchSpace& space, const Workload& w) override {
    tick();
    return view_->covers(space, w);
  }
  bool covers_preloaded(const core::SearchSpace& space,
                        const Workload& w) override {
    tick();
    return view_->covers_preloaded(space, w);
  }
  int insert(const core::SearchSpace& space, core::Mfs mfs) override {
    core::Mfs copy = mfs;
    const int index = view_->insert(space, std::move(mfs));
    copy.index = index;
    inserts_.push_back(orchestrator::PoolEntry{std::move(copy), origin_});
    on_insert_(static_cast<u64>(inserts_.size() - 1), inserts_.back());
    return index;
  }
  std::size_t size() const override { return view_->size(); }
  std::vector<core::Mfs> snapshot() const override {
    return view_->snapshot();
  }

  const std::vector<orchestrator::PoolEntry>& inserts() const {
    return inserts_;
  }
  i64 consults() const { return consults_; }

 private:
  void tick() {
    consults_ += 1;
    on_tick_(consults_);
  }

  orchestrator::ConcurrentMfsPool::View* view_;
  int origin_;
  std::function<void(u64, const orchestrator::PoolEntry&)> on_insert_;
  std::function<void(i64)> on_tick_;
  std::vector<orchestrator::PoolEntry> inserts_;
  i64 consults_ = 0;
};

}  // namespace

FleetWorker::FleetWorker(int id, const orchestrator::CampaignConfig& config,
                         Transport* transport, WorkerOptions opts)
    : id_(id), config_(config), transport_(transport), opts_(opts) {}

void FleetWorker::send(Message m) {
  m.sender = id_;
  m.seq = ++seq_;
  transport_->send(id_, kCoordinatorId, m.to_json());
}

void FleetWorker::heartbeat(u64 lease, i64 probes) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.lease = lease;
  m.busy = lease != 0;
  m.probes = probes;
  send(std::move(m));
}

void FleetWorker::run_lease(const Message& lease) {
  // Worker-local pool, preloaded with everything the coordinator already
  // knows for this scope (warm-start entries keep their warm origin, a dead
  // worker's streamed extractions keep its worker origin — so this cell's
  // hits attribute exactly as they would have in-process).
  orchestrator::ConcurrentMfsPool pool;
  pool.set_telemetry(config_.telemetry);
  pool.load_entries(lease.scope, lease.preload);
  orchestrator::ConcurrentMfsPool::View view = pool.view(lease.scope, id_);

  const bool kill_here = !opts_.kill_at_cell.empty() &&
                         lease.cell.label() == opts_.kill_at_cell;
  auto last_beat = Clock::now();
  StreamingStore store(
      &view, id_,
      [this, &lease, kill_here](u64 ordinal,
                                const orchestrator::PoolEntry& entry) {
        Message batch;
        batch.type = MsgType::kMfsBatch;
        batch.lease = lease.lease;
        batch.first_ordinal = ordinal;
        batch.inserts.push_back(entry);
        send(std::move(batch));
        // Die only after the first extraction is on the wire: the re-queue
        // test needs the coordinator to hold partial knowledge the
        // replacement lease must warm-skip.
        if (kill_here && ordinal == 0) throw Killed{};
      },
      [this, &lease, &last_beat](i64 consults) {
        if (opts_.slow_probe_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(opts_.slow_probe_us));
        }
        const auto now = Clock::now();
        if (now - last_beat >= opts_.heartbeat_interval) {
          last_beat = now;
          heartbeat(lease.lease, consults);
        }
      });

  const Rng rng = Rng(config_.campaign_seed).split(lease.cell.stream);
  orchestrator::CellResult cr = orchestrator::execute_cell(
      orchestrator::cell_execution_options(config_), lease.cell, id_,
      lease.start_seconds, rng, view, &store);
  // A kill on a cell that never extracts: die at cell end, before CellDone
  // — the coordinator still sees the lease vanish and re-queues it.
  if (kill_here && store.inserts().empty()) throw Killed{};

  Message done;
  done.type = MsgType::kCellDone;
  done.lease = lease.lease;
  done.result = std::move(cr);
  done.inserts = store.inserts();
  done.pool_delta = pool.stats();
  done_lease_ = lease.lease;
  done.sender = id_;
  done.seq = ++seq_;
  done_payload_ = done.to_json();
  transport_->send(id_, kCoordinatorId, done_payload_);
  done_acked_ = false;
  done_sent_ = Clock::now();
}

void FleetWorker::run() {
  try {
    heartbeat(0, 0);
    for (;;) {
      int from = 0;
      std::string payload;
      const RecvStatus status =
          transport_->recv(id_, &from, &payload, opts_.heartbeat_interval);
      if (status == RecvStatus::kClosed) return;
      const auto now = Clock::now();
      if (status == RecvStatus::kTimeout) {
        if (!done_acked_ && now - done_sent_ >= kCellDoneRetransmit) {
          transport_->send(id_, kCoordinatorId, done_payload_);
          done_sent_ = now;
        }
        heartbeat(0, 0);
        continue;
      }
      Message m;
      try {
        m = Message::from_json(payload);
      } catch (const core::JsonError& e) {
        // A garbled payload is a transport problem, not a worker problem:
        // log and keep serving (the fuzz tests drive exactly this path).
        LOG_WARN << "worker " << id_ << " dropped bad message: " << e.what();
        continue;
      }
      switch (m.type) {
        case MsgType::kAck:
          if (m.lease == done_lease_) done_acked_ = true;
          break;
        case MsgType::kLeaseCell:
          if (m.shutdown) return;
          if (m.lease == done_lease_) {
            // The coordinator re-announced a lease we already finished: it
            // never saw our CellDone.  Resend instead of re-running.
            transport_->send(id_, kCoordinatorId, done_payload_);
            done_sent_ = now;
            break;
          }
          // A fresh lease implies the previous CellDone was accepted (the
          // coordinator only leases to idle workers).
          done_acked_ = true;
          run_lease(m);
          break;
        case MsgType::kCellDone:
        case MsgType::kMfsBatch:
        case MsgType::kHeartbeat:
          break;  // not addressed to workers; ignore
      }
    }
  } catch (const Killed&) {
    LOG_INFO << "worker " << id_ << " killed (injected fault)";
  }
}

}  // namespace collie::fleet
