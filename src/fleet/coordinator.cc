#include "fleet/coordinator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "core/json_reader.h"
#include "orchestrator/journal.h"
#include "workload/backend.h"

namespace collie::fleet {

Coordinator::Coordinator(orchestrator::CampaignConfig config,
                         Transport* transport, FleetOptions opts)
    : config_(orchestrator::Campaign(std::move(config)).config()),
      transport_(transport),
      opts_(opts) {
  pool_.set_telemetry(config_.telemetry);
  cells_ = orchestrator::Campaign(config_).plan();
  runnable_ = orchestrator::runnable_cells(config_, cells_);
  schedule_ = orchestrator::plan_schedule(config_, cells_, runnable_);
  workers_.resize(static_cast<std::size_t>(schedule_.workers));
  for (std::size_t w = 0; w < schedule_.queues.size(); ++w) {
    for (const std::size_t i : schedule_.queues[w]) {
      workers_[w].queue.push_back(i);
    }
  }
  results_.resize(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (config_.backend_factory != nullptr) {
      results_[i].backend = config_.backend_factory->substrate();
    }
    if (!runnable_[i]) {
      results_[i].cell = cells_[i];
      results_[i].skipped = true;
    } else {
      ++target_;
    }
  }
  if (config_.warm_start) {
    for (const auto& [scope, entries] : config_.warm_start->scopes) {
      pool_.load_scope(scope, entries);
    }
  }
  if (config_.journal != nullptr && config_.resume == nullptr) {
    std::vector<std::string> labels;
    std::vector<double> budgets;
    labels.reserve(cells_.size());
    budgets.reserve(cells_.size());
    for (const orchestrator::CampaignCell& cell : cells_) {
      labels.push_back(cell.label());
      budgets.push_back(cell.budget_seconds);
    }
    config_.journal->begin(
        orchestrator::to_string(config_.share),
        orchestrator::to_string(config_.strategy), config_.campaign_seed,
        schedule_.workers,
        config_.backend_factory != nullptr
            ? config_.backend_factory->substrate()
            : "sim",
        orchestrator::schedule_to_json(schedule_, labels, budgets));
  }
  if (config_.resume != nullptr) {
    if (config_.journal != nullptr) config_.journal->resume_marker();
    // Restore every journaled CellDone exactly once: result, pool inserts
    // (origin-preserved, completion order), hit-delta attribution and the
    // owner's virtual timeline — then drop the cell from the queues so it
    // never re-leases.  Cells that were in flight at the crash simply
    // re-run from scratch; their streamed extractions were knowledge, not
    // completion.
    std::map<std::string, std::size_t> by_label;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      by_label[cells_[i].label()] = i;
    }
    for (const std::string& label : config_.resume->completion_order) {
      const auto it = by_label.find(label);
      if (it == by_label.end()) {
        throw std::invalid_argument(
            "journal records completed cell " + label +
            " which is not in this campaign's plan (journal was recorded "
            "against a different plan?)");
      }
      const std::size_t i = it->second;
      const orchestrator::RestoredCell& rc =
          config_.resume->completed.at(label);
      results_[i] = rc.result;
      results_[i].cell = cells_[i];  // trust our own plan
      pool_.load_entries(cells_[i].scope(config_.share), rc.inserts);
      delta_.hits += rc.delta.hits;
      delta_.cross_worker_hits += rc.delta.cross_worker_hits;
      delta_.warm_hits += rc.delta.warm_hits;
      delta_.duplicate_inserts += rc.delta.duplicate_inserts;
      if (results_[i].worker >= 0 &&
          results_[i].worker < static_cast<int>(workers_.size())) {
        workers_[static_cast<std::size_t>(results_[i].worker)].timeline +=
            rc.result.result.elapsed_seconds;
      }
      completed_ += 1;
      for (WorkerState& ws : workers_) {
        ws.queue.erase(std::remove(ws.queue.begin(), ws.queue.end(), i),
                       ws.queue.end());
      }
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

void Coordinator::grant(int worker, std::size_t cell_index,
                        Clock::time_point now) {
  WorkerState& ws = workers_[static_cast<std::size_t>(worker)];
  const orchestrator::CampaignCell& cell = cells_[cell_index];
  const u64 id = next_lease_++;
  LeaseState ls;
  ls.worker = worker;
  ls.cell = cell_index;
  ls.scope = cell.scope(config_.share);
  ls.start_seconds = ws.timeline;
  leases_[id] = ls;

  Message m;
  m.type = MsgType::kLeaseCell;
  m.lease = id;
  m.cell = cell;
  m.start_seconds = ls.start_seconds;
  m.scope = ls.scope;
  // Everything already known for this scope: warm-start entries plus every
  // streamed insert — including a dead predecessor's partial extractions.
  m.preload = pool_.export_entries(ls.scope);
  send(worker, std::move(m));

  ws.busy = true;
  ws.lease = id;
  ws.busy_since = now;
  ws.lease_sent = now;
  count(&FleetStats::leases, &obs::FleetIds::leases);
  if (config_.journal != nullptr) {
    config_.journal->event("lease", cell.label(), worker, id);
  }
  LOG_DEBUG << "fleet: leased cell " << cell.label() << " to worker "
            << worker << " (lease " << id << ")";
}

void Coordinator::retransmit_lease(int worker, Clock::time_point now) {
  WorkerState& ws = workers_[static_cast<std::size_t>(worker)];
  const auto it = leases_.find(ws.lease);
  if (it == leases_.end()) return;
  LeaseState& ls = it->second;
  Message m;
  m.type = MsgType::kLeaseCell;
  m.lease = ws.lease;
  m.cell = cells_[ls.cell];
  m.start_seconds = ls.start_seconds;
  m.scope = ls.scope;
  m.preload = pool_.export_entries(ls.scope);
  send(worker, std::move(m));
  ws.lease_sent = now;
}

void Coordinator::apply_inserts(
    LeaseState& ls, u64 first_ordinal,
    const std::vector<orchestrator::PoolEntry>& entries, bool reconcile) {
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const u64 ordinal = first_ordinal + static_cast<u64>(k);
    if (ordinal < ls.next_ordinal ||
        !ls.buffered.emplace(ordinal, entries[k]).second) {
      // The CellDone's full list legitimately re-carries every streamed
      // insert; only a duplicated/replayed MfsBatch counts as a duplicate.
      if (!reconcile) {
        count(&FleetStats::duplicates, &obs::FleetIds::duplicates);
      }
      continue;
    }
  }
  // Apply in strict ordinal order so the coordinator's scope appends match
  // the worker's local insert order; a gap (dropped batch) parks later
  // ordinals until the CellDone's full list reconciles it.
  std::vector<orchestrator::PoolEntry> ready;
  while (!ls.buffered.empty() &&
         ls.buffered.begin()->first == ls.next_ordinal) {
    ready.push_back(std::move(ls.buffered.begin()->second));
    ls.buffered.erase(ls.buffered.begin());
    ls.next_ordinal += 1;
  }
  if (!ready.empty()) {
    if (config_.journal != nullptr) {
      // Each applied insert is journaled exactly once (duplicates and
      // out-of-order arrivals never reach here), so a crashed coordinator's
      // journal can still salvage an in-flight cell's extractions into a
      // checkpoint (journal_to_checkpoint).
      for (const orchestrator::PoolEntry& e : ready) {
        config_.journal->mfs_batch(cells_[ls.cell].label(), ls.scope, e);
      }
    }
    pool_.load_entries(ls.scope, std::move(ready));
    count(&FleetStats::batches, &obs::FleetIds::batches);
  }
}

void Coordinator::handle(const Message& m, int from, Clock::time_point now) {
  if (from < 0 || from >= static_cast<int>(workers_.size())) return;
  WorkerState& ws = workers_[static_cast<std::size_t>(from)];
  ws.last_heard = now;

  switch (m.type) {
    case MsgType::kHeartbeat: {
      if (!ws.alive) {
        // Re-admission: only an *idle* heartbeat past the backoff window
        // revives a worker — a zombie still grinding a revoked lease is
        // left dead until it finishes.
        if (!m.busy && now >= ws.reconnect_at) {
          ws.alive = true;
          ws.busy = false;
          ws.lease = 0;
          if (ws.deaths > 0) {
            stats_.reconnects += 1;
            LOG_INFO << "fleet: worker " << from << " reconnected after "
                     << ws.deaths << " death(s)";
          }
        }
        break;
      }
      if (!m.busy && ws.busy &&
          now - ws.lease_sent >= opts_.lease_retransmit) {
        // The worker thinks it is idle but owes us a cell: the LeaseCell
        // (or its retransmission) was lost.
        retransmit_lease(from, now);
      }
      break;
    }
    case MsgType::kMfsBatch: {
      const auto it = leases_.find(m.lease);
      if (it == leases_.end()) break;
      // Revoked leases still contribute: a dead worker's extractions are
      // knowledge the fleet keeps (the replacement lease preloads them).
      apply_inserts(it->second, m.first_ordinal, m.inserts);
      break;
    }
    case MsgType::kCellDone: {
      const auto it = leases_.find(m.lease);
      if (it == leases_.end()) break;
      LeaseState& ls = it->second;
      // Always Ack — even for a duplicate or a revoked (zombie) lease —
      // so the sender stops retransmitting.
      Message ack;
      ack.type = MsgType::kAck;
      ack.lease = m.lease;
      send(from, std::move(ack));
      if (ls.accepted || ls.revoked) {
        // Exactly-once acceptance is the zero-double-count guarantee: a
        // zombie's result (its lease was revoked and the cell re-leased)
        // and a retransmitted duplicate are both discarded here.
        count(&FleetStats::duplicates, &obs::FleetIds::duplicates);
        break;
      }
      // Reconcile inserts any dropped batch never delivered (the CellDone
      // carries the complete ordinal-ordered list).
      apply_inserts(ls, 0, m.inserts, /*reconcile=*/true);
      ls.accepted = true;
      results_[ls.cell] = m.result;
      results_[ls.cell].cell = cells_[ls.cell];  // trust our own plan
      if (config_.journal != nullptr) {
        // Journal the reconciled copy (plan-side cell identity), synced:
        // once this frame is durable the cell can never be double-counted
        // by a resumed coordinator.
        config_.journal->cell_done(results_[ls.cell], m.inserts,
                                   m.pool_delta, m.lease);
      }
      delta_.hits += m.pool_delta.hits;
      delta_.cross_worker_hits += m.pool_delta.cross_worker_hits;
      delta_.warm_hits += m.pool_delta.warm_hits;
      delta_.duplicate_inserts += m.pool_delta.duplicate_inserts;
      completed_ += 1;
      if (ls.worker >= 0 &&
          ls.worker < static_cast<int>(workers_.size())) {
        WorkerState& owner = workers_[static_cast<std::size_t>(ls.worker)];
        if (owner.lease == m.lease) {
          owner.busy = false;
          owner.lease = 0;
          owner.timeline += m.result.result.elapsed_seconds;
        }
      }
      LOG_DEBUG << "fleet: accepted cell " << cells_[ls.cell].label()
                << " from worker " << from << " (" << completed_ << "/"
                << target_ << ")";
      break;
    }
    case MsgType::kLeaseCell:
    case MsgType::kAck:
      break;  // coordinator-originated types; ignore echoes
  }
}

void Coordinator::check_deaths(Clock::time_point now) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& ws = workers_[w];
    if (!ws.alive || now - ws.last_heard <= opts_.heartbeat_timeout) continue;
    ws.alive = false;
    ws.deaths += 1;
    ws.reconnect_at =
        now + opts_.reconnect_backoff * (i64{1} << std::min(ws.deaths - 1, 10));
    count(&FleetStats::heartbeat_misses, &obs::FleetIds::heartbeat_misses);
    LOG_WARN << "fleet: worker " << w << " missed heartbeats, declared dead"
             << " (death #" << ws.deaths << ")";
    if (ws.busy) {
      const auto it = leases_.find(ws.lease);
      if (it != leases_.end() && !it->second.accepted) {
        it->second.revoked = true;
        orphans_.push_back(it->second.cell);
        count(&FleetStats::requeues, &obs::FleetIds::requeues);
        if (config_.journal != nullptr) {
          config_.journal->event("revoke", cells_[it->second.cell].label(),
                                 static_cast<int>(w), ws.lease);
          config_.journal->event("requeue", cells_[it->second.cell].label(),
                                 static_cast<int>(w), ws.lease);
        }
        LOG_WARN << "fleet: re-queued cell "
                 << cells_[it->second.cell].label() << " from dead worker "
                 << w;
      }
      ws.busy = false;
      ws.lease = 0;
    }
    // Unleased queue entries follow the cell into the orphan list; the
    // worker gets fresh assignments if it ever reconnects.
    for (const std::size_t i : ws.queue) {
      orphans_.push_back(i);
      if (config_.journal != nullptr) {
        config_.journal->event("requeue", cells_[i].label(),
                               static_cast<int>(w), 0);
      }
    }
    ws.queue.clear();
  }
}

void Coordinator::assign_work(Clock::time_point now) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& ws = workers_[w];
    if (!ws.alive || ws.busy) continue;
    std::size_t cell_index = 0;
    bool found = false;
    if (!orphans_.empty()) {
      cell_index = orphans_.front();
      orphans_.pop_front();
      found = true;
    } else if (!ws.queue.empty()) {
      cell_index = ws.queue.front();
      ws.queue.pop_front();
      found = true;
    } else if (opts_.steal) {
      // Wall-clock imbalance: steal the tail of the deepest queue whose
      // owner has been grinding one cell past the steal gate.
      std::size_t victim = workers_.size();
      std::size_t depth = 0;
      for (std::size_t v = 0; v < workers_.size(); ++v) {
        if (v == w || !workers_[v].alive || !workers_[v].busy) continue;
        if (now - workers_[v].busy_since < opts_.steal_after) continue;
        if (workers_[v].queue.size() > depth) {
          depth = workers_[v].queue.size();
          victim = v;
        }
      }
      if (victim < workers_.size() && depth > 0) {
        cell_index = workers_[victim].queue.back();
        workers_[victim].queue.pop_back();
        found = true;
        count(&FleetStats::stolen, &obs::FleetIds::stolen);
        LOG_INFO << "fleet: worker " << w << " stole cell "
                 << cells_[cell_index].label() << " from worker " << victim;
      }
    }
    if (found) grant(static_cast<int>(w), cell_index, now);
  }
}

orchestrator::CampaignCheckpoint Coordinator::checkpoint() const {
  orchestrator::CampaignCheckpoint ck;
  ck.share = orchestrator::to_string(config_.share);
  // Warm-start scopes that belong to no planned cell must survive into the
  // successor checkpoint even though no fold touches them.
  if (config_.warm_start) ck.scopes = config_.warm_start->scopes;
  std::vector<char> accepted(cells_.size(), 0);
  for (const auto& [id, ls] : leases_) {
    (void)id;
    if (ls.accepted) accepted[ls.cell] = 1;
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const bool done = !runnable_[i] || accepted[i] != 0;
    if (!done) continue;
    const bool failed = runnable_[i] && results_[i].failed();
    orchestrator::checkpoint_cell(
        ck, failed ? std::string() : cells_[i].label(),
        cells_[i].scope(config_.share),
        pool_.snapshot(cells_[i].scope(config_.share)));
  }
  return ck;
}

orchestrator::CampaignResult Coordinator::run() {
  auto last_progress = Clock::now();
  std::size_t last_completed = completed_;
  while (completed_ < target_) {
    int from = 0;
    std::string payload;
    const RecvStatus status =
        transport_->recv(kCoordinatorId, &from, &payload, opts_.tick);
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
          std::to_string(target_) + " cells after no progress for " +
          std::to_string(opts_.stall_timeout.count()) + " ms");
    }
  }

  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Message bye;
    bye.type = MsgType::kLeaseCell;
    bye.shutdown = true;
    send(static_cast<int>(w), std::move(bye));
  }

  // Assemble exactly the way Campaign::run does, so a fault-free fleet
  // report serializes byte-identically.
  orchestrator::CampaignResult result;
  result.workers = schedule_.workers;
  result.schedule = schedule_;
  result.share = config_.share;
  if (config_.backend_factory != nullptr) {
    result.backend = config_.backend_factory->substrate();
  }
  result.cells = std::move(results_);
  std::vector<double> worker_elapsed(
      static_cast<std::size_t>(schedule_.workers), 0.0);
  for (const orchestrator::CellResult& cr : result.cells) {
    result.serial_seconds += cr.result.elapsed_seconds;
    if (cr.worker >= 0 &&
        cr.worker < static_cast<int>(worker_elapsed.size())) {
      worker_elapsed[static_cast<std::size_t>(cr.worker)] +=
          cr.result.elapsed_seconds;
    }
  }
  for (const double t : worker_elapsed) {
    if (t > result.makespan_seconds) result.makespan_seconds = t;
  }
  // The coordinator pool holds the entries (and warm entries) but never
  // serves a search; hit and duplicate observations live in the accepted
  // CellDones' worker-local pool deltas.
  result.pool = pool_.stats();
  result.pool.hits += delta_.hits;
  result.pool.cross_worker_hits += delta_.cross_worker_hits;
  result.pool.warm_hits += delta_.warm_hits;
  result.pool.duplicate_inserts += delta_.duplicate_inserts;
  result.pool_scopes = pool_.export_scopes();
  return result;
}

}  // namespace collie::fleet
