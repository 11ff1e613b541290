#include "orchestrator/mfs_pool.h"

namespace collie::orchestrator {

// ---- View -----------------------------------------------------------------

const ConcurrentMfsPool::ScopeHandle&
ConcurrentMfsPool::View::scope_handle() {
  if (handle_ == nullptr) {
    std::lock_guard<std::mutex> lock(pool_->mu_);
    handle_ = &pool_->scopes_[scope_];
  }
  return *handle_;
}

bool ConcurrentMfsPool::View::covers(const core::SearchSpace& space,
                                     const Workload& w) {
  const ScopeHandle& h = scope_handle();
  const int idx = h.index.first_match(space, w);
  if (idx < 0) return miss();
  const int origin = h.origins[static_cast<std::size_t>(idx)];
  const bool warm = origin == kWarmStartOrigin;
  return hit(/*cross=*/!warm && origin != worker_, warm);
}

bool ConcurrentMfsPool::View::covers_preloaded(const core::SearchSpace& space,
                                               const Workload& w) {
  const ScopeHandle& h = scope_handle();
  if (h.warm_entries == 0 || h.index.first_match(space, w, h.warm_mask) < 0) {
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

// ---- Pool-level API -------------------------------------------------------

void ConcurrentMfsPool::append(ScopeHandle& h, core::Mfs mfs, int origin) {
  const std::size_t at = h.origins.size();
  const int sym = static_cast<int>(mfs.symptom);
  mfs.index = static_cast<int>(at);
  h.index.add(mfs);
  if (origin == kWarmStartOrigin) {
    core::MfsIndex::set_bit(h.warm_mask, at);
    h.warm_entries += 1;
  }
  h.origins.push_back(origin);
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

  // An insert may overlap a stored region of the same anomaly.  Keep both
  // — each is a valid explanation and the campaign report dedupes — but
  // count the overlap for the stats, using the exact
  // criterion the report dedupes by (core::same_anomaly_region against any
  // stored same-symptom entry).  Answered through the index, not an entry
  // scan: direction one ("a stored region covers the new witness") is a
  // symptom-masked first_match; direction two ("the new region covers a
  // stored witness") only needs the same-symptom positions, and the
  // bare-vs-bare witness-equality clause only same-symptom bare entries.
  const int sym = static_cast<int>(mfs.symptom);
  bool duplicate =
      h.index.first_match(space, mfs.witness, h.symptom_mask[sym]) >= 0;
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

  const int index = static_cast<int>(h.origins.size());
  append(h, std::move(mfs), origin_worker);
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    // Gauges accumulate on shard 0 (writes are serialized under mu_).
    tel_->registry().add(origin_worker >= 0 ? origin_worker : 0, ids.inserts);
    tel_->registry().gauge_add(0, ids.entries, 1);
  }
  return index;
}

void ConcurrentMfsPool::load_scope(const std::string& scope,
                                   std::vector<core::Mfs> entries) {
  std::vector<PoolEntry> loaded;
  loaded.reserve(entries.size());
  for (core::Mfs& mfs : entries) {
    loaded.push_back(PoolEntry{std::move(mfs), kWarmStartOrigin});
  }
  load_entries(scope, std::move(loaded));
}

void ConcurrentMfsPool::load_entries(const std::string& scope,
                                     std::vector<PoolEntry> entries) {
  if (entries.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ScopeHandle& h = scopes_[scope];
  for (PoolEntry& entry : entries) {
    append(h, std::move(entry.mfs), entry.origin);
  }
  if (tel_ != nullptr) {
    tel_->registry().gauge_add(0, tel_->pool_ids().entries,
                               static_cast<i64>(entries.size()));
  }
}

std::map<std::string, std::vector<core::Mfs>> ConcurrentMfsPool::export_scopes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<core::Mfs>> out;
  for (const auto& [scope, h] : scopes_) {
    if (!h.entries.empty()) out[scope] = h.entries;
  }
  return out;
}

std::vector<PoolEntry> ConcurrentMfsPool::export_entries(
    const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  if (it == scopes_.end()) return {};
  const ScopeHandle& h = it->second;
  std::vector<PoolEntry> out;
  out.reserve(h.entries.size());
  for (std::size_t i = 0; i < h.entries.size(); ++i) {
    out.push_back(PoolEntry{h.entries[i], h.origins[i]});
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

PoolStats ConcurrentMfsPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats s;
  for (const auto& [scope, h] : scopes_) {
    s.entries += static_cast<i64>(h.entries.size());
    s.warm_entries += h.warm_entries;
  }
  s.hits = hits_.load(std::memory_order_relaxed);
  s.cross_worker_hits = cross_hits_.load(std::memory_order_relaxed);
  s.warm_hits = warm_hits_.load(std::memory_order_relaxed);
  s.duplicate_inserts = duplicate_inserts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace collie::orchestrator
