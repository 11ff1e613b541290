#include "orchestrator/mfs_pool.h"

namespace collie::orchestrator {

// ---- View -----------------------------------------------------------------

const ConcurrentMfsPool::Snapshot* ConcurrentMfsPool::View::current() {
  if (handle_ == nullptr ||
      handle_->epoch.load(std::memory_order_acquire) != seen_epoch_) {
    std::lock_guard<std::mutex> lock(pool_->mu_);
    if (handle_ == nullptr) handle_ = &pool_->scopes_[scope_];
    snap_ = handle_->snap;
    seen_epoch_ = snap_ == nullptr ? 0 : snap_->epoch;
  }
  return snap_.get();
}

bool ConcurrentMfsPool::View::covers(const core::SearchSpace& space,
                                     const Workload& w) {
  const Snapshot* snap = current();
  const int idx = snap == nullptr ? -1 : snap->index.first_match(space, w);
  if (idx < 0) return miss();
  const int origin = snap->origins[static_cast<std::size_t>(idx)];
  const bool warm = origin == kWarmStartOrigin;
  return hit(/*cross=*/!warm && origin != worker_, warm);
}

bool ConcurrentMfsPool::View::covers_preloaded(const core::SearchSpace& space,
                                               const Workload& w) {
  const Snapshot* snap = current();
  if (snap == nullptr || snap->warm_entries == 0 ||
      snap->index.first_match(space, w, snap->warm_mask) < 0) {
    return miss();
  }
  return hit(/*cross=*/false, /*warm=*/true);
}

bool ConcurrentMfsPool::View::hit(bool cross, bool warm) {
  hits_ += 1;
  pool_->hits_.fetch_add(1, std::memory_order_relaxed);
  if (cross) {
    cross_hits_ += 1;
    pool_->cross_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (warm) {
    warm_hits_ += 1;
    pool_->warm_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::Telemetry* tel = pool_->tel_; tel != nullptr) {
    const obs::PoolIds& ids = tel->pool_ids();
    tel->registry().add(worker_, ids.hits);
    if (cross) tel->registry().add(worker_, ids.cross_hits);
    if (warm) tel->registry().add(worker_, ids.warm_hits);
  }
  return true;
}

bool ConcurrentMfsPool::View::miss() {
  if (obs::Telemetry* tel = pool_->tel_; tel != nullptr) {
    tel->registry().add(worker_, tel->pool_ids().misses);
  }
  return false;
}

int ConcurrentMfsPool::View::insert(const core::SearchSpace& space,
                                    core::Mfs mfs) {
  bool duplicate = false;
  const int index =
      pool_->insert(scope_, space, std::move(mfs), worker_, &duplicate);
  if (duplicate) dup_inserts_ += 1;
  return index;
}

std::size_t ConcurrentMfsPool::View::size() const {
  return pool_->size(scope_);
}

std::vector<core::Mfs> ConcurrentMfsPool::View::snapshot() const {
  return pool_->snapshot(scope_);
}

// ---- Scope handles --------------------------------------------------------

void ConcurrentMfsPool::publish(ScopeHandle& h,
                                std::shared_ptr<const Snapshot> next) {
  const u64 epoch = next->epoch;
  h.snap = std::move(next);
  h.epoch.store(epoch, std::memory_order_release);
}

// ---- Pool-level API -------------------------------------------------------

std::shared_ptr<ConcurrentMfsPool::Snapshot> ConcurrentMfsPool::successor(
    const ScopeHandle& h) {
  auto next = h.snap != nullptr ? std::make_shared<Snapshot>(*h.snap)
                                : std::make_shared<Snapshot>();
  next->epoch += 1;
  return next;
}

void ConcurrentMfsPool::append(ScopeHandle& h, Snapshot& next, core::Mfs mfs,
                               int origin) {
  const std::size_t at = next.origins.size();
  const int sym = static_cast<int>(mfs.symptom);
  mfs.index = static_cast<int>(at);
  next.index.add(mfs);
  if (origin == kWarmStartOrigin) {
    core::MfsIndex::set_bit(next.warm_mask, at);
    next.warm_entries += 1;
  }
  next.origins.push_back(origin);
  core::MfsIndex::set_bit(h.symptom_mask[sym], at);
  h.by_symptom[sym].push_back(static_cast<u32>(at));
  h.entries.push_back(std::move(mfs));
}

int ConcurrentMfsPool::insert(const std::string& scope,
                              const core::SearchSpace& space, core::Mfs mfs,
                              int origin_worker, bool* duplicate_out) {
  if (duplicate_out != nullptr) *duplicate_out = false;
  std::lock_guard<std::mutex> lock(mu_);
  ScopeHandle& h = scopes_[scope];
  const Snapshot* old = h.snap.get();

  // Two workers can race past their covers() checks and extract overlapping
  // MFSes for the same region.  Keep both — each is a valid explanation and
  // the campaign report dedupes — but count the overlap for the stats,
  // using the exact criterion the report dedupes by
  // (core::same_anomaly_region against any stored same-symptom entry).
  // Answered through the index, not an entry scan: direction one ("a stored
  // region covers the new witness") is a symptom-masked first_match;
  // direction two ("the new region covers a stored witness") only needs the
  // same-symptom positions, and the bare-vs-bare witness-equality clause
  // only same-symptom bare entries.
  if (old != nullptr) {
    const int sym = static_cast<int>(mfs.symptom);
    bool duplicate =
        old->index.first_match(space, mfs.witness, h.symptom_mask[sym]) >= 0;
    if (!duplicate) {
      for (const u32 pos : h.by_symptom[sym]) {
        const core::Mfs& e = h.entries[pos];
        duplicate = mfs.conditions.empty()
                        ? e.conditions.empty() && e.witness == mfs.witness
                        : mfs.matches(space, e.witness);
        if (duplicate) break;
      }
    }
    if (duplicate) {
      if (duplicate_out != nullptr) *duplicate_out = true;
      duplicate_inserts_.fetch_add(1, std::memory_order_relaxed);
      if (tel_ != nullptr) {
        tel_->registry().add(origin_worker >= 0 ? origin_worker : 0,
                             tel_->pool_ids().duplicate_inserts);
      }
    }
  }

  // Successor snapshot: origins + index extended, epoch bumped, then
  // published.  A view still holding `old` keeps a consistent (if slightly
  // stale) snapshot until its next read sees the new epoch; it can only
  // under-skip, exactly like losing the race under a lock-based scan.
  std::shared_ptr<Snapshot> next = successor(h);
  const int index = static_cast<int>(next->origins.size());
  append(h, *next, std::move(mfs), origin_worker);
  publish(h, std::move(next));
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    obs::Registry& reg = tel_->registry();
    const int shard = origin_worker >= 0 ? origin_worker : 0;
    reg.add(shard, ids.inserts);
    reg.add(shard, ids.epoch_publishes);
    // Gauges accumulate on shard 0 (writes are serialized under mu_).
    reg.gauge_add(0, ids.entries, 1);
  }
  return index;
}

void ConcurrentMfsPool::load_scope(const std::string& scope,
                                   std::vector<core::Mfs> entries) {
  std::lock_guard<std::mutex> lock(mu_);
  ScopeHandle& h = scopes_[scope];
  std::shared_ptr<Snapshot> next = successor(h);
  const i64 loaded = static_cast<i64>(entries.size());
  for (core::Mfs& mfs : entries) {
    append(h, *next, std::move(mfs), kWarmStartOrigin);
  }
  publish(h, std::move(next));
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    tel_->registry().add(0, ids.epoch_publishes);
    tel_->registry().gauge_add(0, ids.entries, loaded);
  }
}

void ConcurrentMfsPool::load_entries(const std::string& scope,
                                     std::vector<PoolEntry> entries) {
  if (entries.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ScopeHandle& h = scopes_[scope];
  std::shared_ptr<Snapshot> next = successor(h);
  const i64 loaded = static_cast<i64>(entries.size());
  for (PoolEntry& entry : entries) {
    append(h, *next, std::move(entry.mfs), entry.origin);
  }
  publish(h, std::move(next));
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    tel_->registry().add(0, ids.epoch_publishes);
    tel_->registry().gauge_add(0, ids.entries, loaded);
  }
}

std::map<std::string, std::vector<core::Mfs>> ConcurrentMfsPool::export_scopes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<core::Mfs>> out;
  for (const auto& [scope, h] : scopes_) {
    if (h.snap == nullptr) continue;
    out[scope] = h.entries;
  }
  return out;
}

std::vector<PoolEntry> ConcurrentMfsPool::export_entries(
    const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  if (it == scopes_.end()) return {};
  const ScopeHandle& h = it->second;
  const Snapshot* snap = h.snap.get();
  if (snap == nullptr) return {};
  std::vector<PoolEntry> out;
  out.reserve(h.entries.size());
  for (std::size_t i = 0; i < h.entries.size(); ++i) {
    out.push_back(PoolEntry{h.entries[i], snap->origins[i]});
  }
  return out;
}

std::size_t ConcurrentMfsPool::size(const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  return it == scopes_.end() ? 0 : it->second.entries.size();
}

std::vector<core::Mfs> ConcurrentMfsPool::snapshot(
    const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  return it == scopes_.end() ? std::vector<core::Mfs>{}
                             : it->second.entries;
}

u64 ConcurrentMfsPool::epoch(const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  return it == scopes_.end() ? 0
                             : it->second.epoch.load(std::memory_order_relaxed);
}

PoolStats ConcurrentMfsPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats s;
  for (const auto& [scope, h] : scopes_) {
    if (h.snap == nullptr) continue;
    s.entries += static_cast<i64>(h.entries.size());
    s.warm_entries += h.snap->warm_entries;
  }
  s.hits = hits_.load(std::memory_order_relaxed);
  s.cross_worker_hits = cross_hits_.load(std::memory_order_relaxed);
  s.warm_hits = warm_hits_.load(std::memory_order_relaxed);
  s.duplicate_inserts = duplicate_inserts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace collie::orchestrator
