#include "fleet/coordinator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "core/json_reader.h"
#include "orchestrator/journal.h"

namespace collie::fleet {

Coordinator::Coordinator(orchestrator::CampaignConfig config,
                         FleetOptions opts)
    : config_(orchestrator::Campaign(std::move(config)).config()),
      opts_(opts) {
  cells_ = orchestrator::Campaign(config_).plan();
  orchestrator::CampaignStart start =
      orchestrator::start_campaign(config_, cells_, pool_);
  result_ = std::move(start.result);
  std::vector<double> budgets;
  budgets.reserve(cells_.size());
  for (const orchestrator::CampaignCell& cell : cells_) {
    budgets.push_back(cell.budget_seconds);
  }
  order_ = orchestrator::dispatch_order(result_.schedule, budgets);
  worker_of_ = result_.schedule.worker_of(cells_.size());
  std::vector<std::size_t> rank_of(cells_.size());
  for (std::size_t rank = 0; rank < order_.size(); ++rank) {
    rank_of[order_[rank]] = rank;
  }
  // Each chain's first cell still to run is ready; the others wait for
  // their predecessor.  A cell restored from the journal counts as
  // accepted and is never leased; cells in flight at the crash re-run from
  // scratch.
  next_in_chain_.assign(order_.size(), kNoRank);
  for (const std::vector<std::size_t>& chain :
       orchestrator::scope_chains(cells_, order_, config_.share)) {
    std::size_t last = kNoRank;
    for (const std::size_t cell : chain) {
      if (start.restored[cell]) {
        ++completed_;
        continue;
      }
      if (last == kNoRank) {
        ready_.insert(rank_of[cell]);
      } else {
        next_in_chain_[last] = rank_of[cell];
      }
      last = rank_of[cell];
    }
  }
}

void Coordinator::count(i64 FleetStats::* field,
                        obs::CounterId obs::FleetIds::* id) {
  stats_.*field += 1;
  if (config_.telemetry != nullptr) {
    config_.telemetry->registry().add(0, config_.telemetry->fleet_ids().*id);
  }
}

void Coordinator::send(int to, Message m) {
  m.sender = kCoordinatorId;
  m.seq = ++seq_;
  transport_->send(kCoordinatorId, to, m.to_json());
}

void Coordinator::send_lease(int executor, Clock::time_point now) {
  ExecutorState& es = executors_[static_cast<std::size_t>(executor)];
  const auto it = leases_.find(es.lease);
  if (it == leases_.end()) return;
  const std::size_t cell = order_[it->second.rank];
  Message m;
  m.type = MsgType::kLeaseCell;
  m.lease = es.lease;
  m.cell = cells_[cell];
  m.worker = worker_of_[cell];
  m.scope = cells_[cell].scope(config_.share);
  // Everything known for this scope: warm-start entries plus every accepted
  // cell's inserts.
  m.preload = pool_.export_entries(m.scope);
  send(executor, std::move(m));
  es.lease_sent = now;
}

void Coordinator::handle(const Message& m, int from, Clock::time_point now) {
  if (from < 0 || from >= static_cast<int>(executors_.size())) return;
  ExecutorState& es = executors_[static_cast<std::size_t>(from)];
  es.last_heard = now;

  switch (m.type) {
    case MsgType::kHeartbeat: {
      if (!es.alive) {
        // Re-admission: only an *idle* heartbeat past the backoff window
        // revives an executor — a zombie still grinding a revoked lease is
        // left dead until it finishes.
        if (!m.busy && now >= es.reconnect_at) {
          es.alive = true;
          es.lease = 0;
          if (es.deaths > 0) {
            stats_.reconnects += 1;
            LOG_INFO << "fleet: executor " << from << " reconnected after "
                     << es.deaths << " death(s)";
          }
        }
        break;
      }
      if (!m.busy && es.lease != 0 &&
          now - es.lease_sent >= kLeaseRetransmit) {
        // The executor thinks it is idle but owes us a cell: the LeaseCell
        // (or its retransmission) was lost.
        send_lease(from, now);
      }
      break;
    }
    case MsgType::kCellDone: {
      const auto it = leases_.find(m.lease);
      if (it == leases_.end()) break;
      LeaseState& ls = it->second;
      // Always Ack — even for a duplicate or a revoked (zombie) lease — so
      // the sender stops retransmitting.
      Message ack;
      ack.type = MsgType::kAck;
      ack.lease = m.lease;
      send(from, std::move(ack));
      if (ls.accepted || ls.revoked) {
        // Exactly-once acceptance is the zero-double-count guarantee: a
        // zombie's result (its lease was revoked and the cell re-queued)
        // and a retransmitted duplicate are both discarded here.
        count(&FleetStats::duplicates, &obs::FleetIds::duplicates);
        break;
      }
      ls.accepted = true;
      const std::size_t cell = order_[ls.rank];
      const std::string scope = cells_[cell].scope(config_.share);
      orchestrator::CellResult& cr = result_.cells[cell];
      cr = m.result;
      cr.cell = cells_[cell];  // trust our own plan
      if (config_.journal != nullptr) {
        // Synced: once this frame is durable the cell can never be
        // double-counted by a resumed coordinator.
        config_.journal->cell_done(cr, m.inserts, m.pool_delta, m.lease);
      }
      pool_.load_entries(scope, m.inserts);
      delta_.add_observations(m.pool_delta);
      completed_ += 1;
      if (next_in_chain_[ls.rank] != kNoRank) {
        ready_.insert(next_in_chain_[ls.rank]);
      }
      if (es.lease == m.lease) es.lease = 0;
      LOG_DEBUG << "fleet: accepted cell " << cells_[cell].label()
                << " from executor " << from << " (" << completed_ << "/"
                << order_.size() << ")";
      break;
    }
    case MsgType::kLeaseCell:
    case MsgType::kAck:
      break;  // coordinator-originated types; ignore echoes
  }
}

void Coordinator::check_deaths(Clock::time_point now) {
  for (std::size_t e = 0; e < executors_.size(); ++e) {
    ExecutorState& es = executors_[e];
    if (!es.alive || now - es.last_heard <= opts_.heartbeat_timeout) continue;
    es.alive = false;
    es.deaths += 1;
    es.reconnect_at =
        now + kReconnectBackoff * (i64{1} << std::min(es.deaths - 1, 10));
    count(&FleetStats::heartbeat_misses, &obs::FleetIds::heartbeat_misses);
    LOG_WARN << "fleet: executor " << e << " missed heartbeats, declared dead"
             << " (death #" << es.deaths << ")";
    const auto it = leases_.find(es.lease);
    if (it != leases_.end() && !it->second.accepted) {
      it->second.revoked = true;
      ready_.insert(it->second.rank);
      count(&FleetStats::requeues, &obs::FleetIds::requeues);
      LOG_WARN << "fleet: re-queued cell "
               << cells_[order_[it->second.rank]].label()
               << " from dead executor " << e;
    }
    es.lease = 0;
  }
}

void Coordinator::assign_work(Clock::time_point now) {
  for (std::size_t e = 0; e < executors_.size() && !ready_.empty(); ++e) {
    ExecutorState& es = executors_[e];
    if (!es.alive || es.lease != 0) continue;
    const std::size_t rank = *ready_.begin();
    ready_.erase(ready_.begin());
    const u64 id = next_lease_++;
    leases_[id] = LeaseState{rank, false, false};
    es.lease = id;
    send_lease(static_cast<int>(e), now);
    count(&FleetStats::leases, &obs::FleetIds::leases);
    LOG_DEBUG << "fleet: leased cell " << cells_[order_[rank]].label()
              << " to executor " << e << " (lease " << id << ")";
  }
}

orchestrator::CampaignResult Coordinator::run(Transport* transport) {
  transport_ = transport;
  executors_.resize(static_cast<std::size_t>(transport->executors()));
  auto last_progress = Clock::now();
  std::size_t last_completed = completed_;
  while (completed_ < order_.size()) {
    int from = 0;
    std::string payload;
    const RecvStatus status =
        transport_->recv(kCoordinatorId, &from, &payload, kPollTick);
    const auto now = Clock::now();
    if (status == RecvStatus::kClosed) {
      throw std::runtime_error("fleet transport closed mid-campaign");
    }
    if (status == RecvStatus::kMessage) {
      try {
        handle(Message::from_json(payload), from, now);
      } catch (const core::JsonError& e) {
        stats_.bad_messages += 1;
        LOG_WARN << "fleet: dropped bad message from " << from << ": "
                 << e.what();
      }
    }
    check_deaths(now);
    assign_work(now);
    if (completed_ > last_completed) {
      last_completed = completed_;
      last_progress = now;
    } else if (now - last_progress > opts_.stall_timeout) {
      throw std::runtime_error(
          "fleet stalled: " + std::to_string(completed_) + "/" +
          std::to_string(order_.size()) + " cells after no progress for " +
          std::to_string(opts_.stall_timeout.count()) + " ms");
    }
  }

  for (std::size_t e = 0; e < executors_.size(); ++e) {
    Message bye;
    bye.type = MsgType::kLeaseCell;
    bye.shutdown = true;
    send(static_cast<int>(e), std::move(bye));
  }

  orchestrator::finish_campaign(config_, pool_, delta_, result_);
  return std::move(result_);
}

}  // namespace collie::fleet
