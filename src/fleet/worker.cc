#include "fleet/worker.h"

#include <chrono>
#include <functional>
#include <utility>

#include "common/log.h"
#include "core/json_reader.h"
#include "orchestrator/journal.h"

namespace collie::fleet {

namespace {

using Clock = std::chrono::steady_clock;

// The MfsStore a leased cell searches against: forwards everything to the
// cell's store and calls `on_tick` with the running consult count on every
// MatchMFS consult — the probe loop's pulse the executor heartbeats from.
class HeartbeatStore final : public core::MfsStore {
 public:
  HeartbeatStore(core::MfsStore& inner, std::function<void(i64)> on_tick)
      : inner_(inner), on_tick_(std::move(on_tick)) {}

  bool covers(const core::SearchSpace& space, const Workload& w) override {
    on_tick_(++consults_);
    return inner_.covers(space, w);
  }
  bool covers_preloaded(const core::SearchSpace& space,
                        const Workload& w) override {
    on_tick_(++consults_);
    return inner_.covers_preloaded(space, w);
  }
  int insert(const core::SearchSpace& space, core::Mfs mfs) override {
    return inner_.insert(space, std::move(mfs));
  }
  std::size_t size() const override { return inner_.size(); }
  std::vector<core::Mfs> snapshot() const override {
    return inner_.snapshot();
  }

 private:
  core::MfsStore& inner_;
  std::function<void(i64)> on_tick_;
  i64 consults_ = 0;
};

}  // namespace

FleetWorker::FleetWorker(int id, const orchestrator::CampaignConfig& config,
                         Transport* transport, WorkerOptions opts)
    : id_(id), config_(config), transport_(transport), opts_(std::move(opts)) {}

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

bool FleetWorker::run_lease(const Message& lease) {
  // Executor-local pool, preloaded with everything the coordinator knows
  // for this scope (warm-start entries keep their warm origin, accepted
  // cells' inserts their logical worker's), viewed as the lease's logical
  // worker — so this cell's hits attribute exactly as they would in-process.
  orchestrator::ConcurrentMfsPool pool;
  pool.set_telemetry(config_.telemetry);
  pool.load_entries(lease.scope, lease.preload);
  orchestrator::ConcurrentMfsPool::View view =
      pool.view(lease.scope, lease.worker);
  orchestrator::JournalingStore inserts(view, nullptr, lease.cell.label(),
                                        lease.scope, lease.worker);
  auto last_beat = Clock::now();
  HeartbeatStore store(inserts, [this, &lease, &last_beat](i64 consults) {
    const auto now = Clock::now();
    if (now - last_beat >= opts_.heartbeat_interval) {
      last_beat = now;
      heartbeat(lease.lease, consults);
    }
  });

  const Rng rng = Rng(config_.campaign_seed).split(lease.cell.stream);
  orchestrator::CellResult cr = orchestrator::execute_cell(
      orchestrator::cell_execution_options(config_), lease.cell, lease.worker,
      0.0, rng, view, &store);
  if (opts_.dies_on && opts_.dies_on(lease.cell)) return false;

  Message done;
  done.type = MsgType::kCellDone;
  done.lease = lease.lease;
  done.result = std::move(cr);
  done.inserts = inserts.inserts();
  done.pool_delta = pool.stats();
  done_lease_ = lease.lease;
  done.sender = id_;
  done.seq = ++seq_;
  done_payload_ = done.to_json();
  transport_->send(id_, kCoordinatorId, done_payload_);
  done_acked_ = false;
  done_sent_ = Clock::now();
  return true;
}

bool FleetWorker::run() {
  heartbeat(0, 0);
  for (;;) {
    int from = 0;
    std::string payload;
    const RecvStatus status =
        transport_->recv(id_, &from, &payload, opts_.heartbeat_interval);
    if (status == RecvStatus::kClosed) return false;
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
      // A garbled payload is a transport problem, not an executor problem:
      // log and keep serving (the fuzz tests drive this path).
      LOG_WARN << "executor " << id_ << " dropped bad message: " << e.what();
      continue;
    }
    switch (m.type) {
      case MsgType::kAck:
        if (m.lease == done_lease_) done_acked_ = true;
        break;
      case MsgType::kLeaseCell:
        if (m.shutdown) return false;
        if (m.lease == done_lease_) {
          // The coordinator re-announced a lease we already finished: it
          // never saw our CellDone.  Resend instead of re-running.
          transport_->send(id_, kCoordinatorId, done_payload_);
          done_sent_ = now;
          break;
        }
        // A fresh lease implies the previous CellDone was accepted (the
        // coordinator only leases to idle executors).
        done_acked_ = true;
        if (!run_lease(m)) {
          LOG_INFO << "executor " << id_ << " killed (injected fault)";
          return true;
        }
        break;
      case MsgType::kCellDone:
      case MsgType::kHeartbeat:
        break;  // not addressed to executors; ignore
    }
  }
}

}  // namespace collie::fleet
