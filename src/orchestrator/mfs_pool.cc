#include "orchestrator/mfs_pool.h"

#include <algorithm>

namespace collie::orchestrator {

// ---- View -----------------------------------------------------------------

const ConcurrentMfsPool::ScopeHandle* ConcurrentMfsPool::View::handle() {
  if (!handle_) handle_ = pool_->bind(scope_, &slot_);
  return handle_.get();
}

ConcurrentMfsPool::View::~View() { release(); }

ConcurrentMfsPool::View::View(View&& other) noexcept
    : pool_(other.pool_),
      scope_(std::move(other.scope_)),
      worker_(other.worker_),
      handle_(std::move(other.handle_)),
      slot_(other.slot_),
      hits_(other.hits_),
      cross_hits_(other.cross_hits_),
      warm_hits_(other.warm_hits_),
      dup_inserts_(other.dup_inserts_) {
  other.slot_ = nullptr;
  other.handle_.reset();
}

ConcurrentMfsPool::View& ConcurrentMfsPool::View::operator=(
    View&& other) noexcept {
  if (this == &other) return *this;
  release();
  pool_ = other.pool_;
  scope_ = std::move(other.scope_);
  worker_ = other.worker_;
  handle_ = std::move(other.handle_);
  slot_ = other.slot_;
  hits_ = other.hits_;
  cross_hits_ = other.cross_hits_;
  warm_hits_ = other.warm_hits_;
  dup_inserts_ = other.dup_inserts_;
  other.slot_ = nullptr;
  other.handle_.reset();
  return *this;
}

void ConcurrentMfsPool::View::release() {
  if (slot_ != nullptr && handle_) pool_->release_slot(*handle_, slot_);
  slot_ = nullptr;
  handle_.reset();
}

// Hazard announce-and-validate.  The slot store and the re-check load are
// seq_cst so they order against a writer's publish store + slot scan in the
// single total order; see DESIGN.md ("Epoch reclamation") for why a reader
// that breaks out of this loop can never have its snapshot freed under it.
const ConcurrentMfsPool::Snapshot* ConcurrentMfsPool::View::begin_read() {
  const ScopeHandle* h = handle();
  const Snapshot* s = h->snap.load(std::memory_order_acquire);
  while (s != nullptr) {
    slot_->protect.store(s, std::memory_order_seq_cst);
    const Snapshot* cur = h->snap.load(std::memory_order_seq_cst);
    if (cur == s) break;
    // Superseded between load and announce: the stale pointer was never
    // dereferenced (and may already be freed) — retry on the new one.
    s = cur;
  }
  return s;
}

void ConcurrentMfsPool::View::end_read() {
  slot_->protect.store(nullptr, std::memory_order_seq_cst);
}

bool ConcurrentMfsPool::View::covers(const core::SearchSpace& space,
                                     const Workload& w) {
  const Snapshot* snap = begin_read();
  bool cross = false;
  bool warm = false;
  const bool hit = pool_->covers_snapshot(snap, space, w, worker_, &cross,
                                          &warm);
  end_read();
  if (!hit) return false;
  hits_ += 1;
  if (cross) cross_hits_ += 1;
  if (warm) warm_hits_ += 1;
  return true;
}

bool ConcurrentMfsPool::View::covers_preloaded(const core::SearchSpace& space,
                                               const Workload& w) {
  const Snapshot* snap = begin_read();
  const bool hit = pool_->covers_preloaded_snapshot(snap, space, w, worker_);
  end_read();
  if (!hit) return false;
  hits_ += 1;
  warm_hits_ += 1;
  return true;
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

// ---- Snapshot queries -----------------------------------------------------

bool ConcurrentMfsPool::covers_snapshot(const Snapshot* snap,
                                        const core::SearchSpace& space,
                                        const Workload& w, int requester,
                                        bool* cross, bool* warm) {
  const int idx = snap == nullptr ? -1 : snap->index.first_match(space, w);
  if (idx < 0) {
    if (tel_ != nullptr) {
      tel_->registry().add(requester, tel_->pool_ids().misses);
    }
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  const int origin = snap->origins[static_cast<std::size_t>(idx)];
  const bool is_warm = origin == kWarmStartOrigin;
  const bool is_cross = !is_warm && origin != requester;
  if (is_cross) cross_hits_.fetch_add(1, std::memory_order_relaxed);
  if (is_warm) warm_hits_.fetch_add(1, std::memory_order_relaxed);
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    tel_->registry().add(requester, ids.hits);
    if (is_cross) tel_->registry().add(requester, ids.cross_hits);
    if (is_warm) tel_->registry().add(requester, ids.warm_hits);
  }
  if (cross != nullptr) *cross = is_cross;
  if (warm != nullptr) *warm = is_warm;
  return true;
}

bool ConcurrentMfsPool::covers_preloaded_snapshot(const Snapshot* snap,
                                                  const core::SearchSpace& space,
                                                  const Workload& w,
                                                  int requester) {
  if (snap == nullptr || snap->warm_entries == 0 ||
      snap->index.first_match(space, w, snap->warm_mask) < 0) {
    if (tel_ != nullptr) {
      tel_->registry().add(requester, tel_->pool_ids().misses);
    }
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  warm_hits_.fetch_add(1, std::memory_order_relaxed);
  if (tel_ != nullptr) {
    tel_->registry().add(requester, tel_->pool_ids().hits);
    tel_->registry().add(requester, tel_->pool_ids().warm_hits);
  }
  return true;
}

// ---- Scope handles --------------------------------------------------------

std::shared_ptr<ConcurrentMfsPool::ScopeHandle> ConcurrentMfsPool::bind(
    const std::string& scope, ReaderSlot** slot) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<ScopeHandle>& h = scopes_[scope];
  if (!h) h = std::make_shared<ScopeHandle>();
  if (!h->free_slots.empty()) {
    *slot = h->free_slots.back();
    h->free_slots.pop_back();
  } else {
    h->slots.push_back(std::make_unique<ReaderSlot>());
    *slot = h->slots.back().get();
  }
  return h;
}

void ConcurrentMfsPool::release_slot(ScopeHandle& h, ReaderSlot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  // The owning view is quiescent (slots are released only from the view
  // destructor, never mid-read); mu_ orders this store against scans.
  slot->protect.store(nullptr, std::memory_order_relaxed);
  h.free_slots.push_back(slot);
}

const ConcurrentMfsPool::Snapshot* ConcurrentMfsPool::publish(
    ScopeHandle& h, std::unique_ptr<Snapshot> next) {
  const Snapshot* published = next.get();
  const bool superseding = !h.history.empty();
  h.history.push_back(std::move(next));
  // seq_cst (not just release): orders against readers' announce/re-check
  // so the reclaim scan below cannot miss an in-flight announcement.
  h.snap.store(published, std::memory_order_seq_cst);
  if (superseding) retained_ += 1;
  reclaim(h);
  return published;
}

void ConcurrentMfsPool::reclaim(ScopeHandle& h) {
  // Keep the published snapshot plus the newest keep_epochs superseded ones.
  const std::size_t keep =
      1 + static_cast<std::size_t>(std::max(0, opts_.keep_epochs));
  if (h.history.size() <= keep) return;
  // Snapshots announced by in-flight readers; typically none or one.
  std::vector<const Snapshot*> announced;
  for (const std::unique_ptr<ReaderSlot>& slot : h.slots) {
    const Snapshot* p = slot->protect.load(std::memory_order_seq_cst);
    if (p != nullptr) announced.push_back(p);
  }
  const std::size_t retire = h.history.size() - keep;
  std::size_t w = 0;
  for (std::size_t i = 0; i < retire; ++i) {
    std::unique_ptr<const Snapshot>& s = h.history[i];
    if (std::find(announced.begin(), announced.end(), s.get()) !=
        announced.end()) {
      // Grace period: a reader still holds it; retry on the next write.
      h.history[w++] = std::move(s);
    } else {
      s.reset();
      retained_ -= 1;
    }
  }
  for (std::size_t i = retire; i < h.history.size(); ++i) {
    if (w != i) h.history[w] = std::move(h.history[i]);
    ++w;
  }
  h.history.resize(w);
}

void ConcurrentMfsPool::update_retained_gauge() {
  if (tel_ != nullptr) {
    tel_->registry().gauge_set(0, tel_->pool_ids().retained_snapshots,
                               retained_);
  }
}

// ---- Pool-level API -------------------------------------------------------

bool ConcurrentMfsPool::covers(const std::string& scope,
                               const core::SearchSpace& space,
                               const Workload& w, int requester, bool* cross,
                               bool* warm) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  const Snapshot* snap =
      it == scopes_.end() ? nullptr
                          : it->second->snap.load(std::memory_order_relaxed);
  return covers_snapshot(snap, space, w, requester, cross, warm);
}

bool ConcurrentMfsPool::covers_preloaded(const std::string& scope,
                                         const core::SearchSpace& space,
                                         const Workload& w) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  const Snapshot* snap =
      it == scopes_.end() ? nullptr
                          : it->second->snap.load(std::memory_order_relaxed);
  return covers_preloaded_snapshot(snap, space, w, 0);
}

std::unique_ptr<ConcurrentMfsPool::Snapshot> ConcurrentMfsPool::successor(
    const ScopeHandle& h) {
  const Snapshot* old = h.snap.load(std::memory_order_relaxed);
  auto next = old != nullptr ? std::make_unique<Snapshot>(*old)
                             : std::make_unique<Snapshot>();
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
  std::shared_ptr<ScopeHandle>& h = scopes_[scope];
  if (!h) h = std::make_shared<ScopeHandle>();
  const Snapshot* old = h->snap.load(std::memory_order_relaxed);

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
        old->index.first_match(space, mfs.witness, h->symptom_mask[sym]) >= 0;
    if (!duplicate) {
      for (const u32 pos : h->by_symptom[sym]) {
        const core::Mfs& e = h->entries[pos];
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

  // Successor snapshot: origins + index extended, epoch bumped, published
  // atomically.  A reader still on `old` keeps a consistent (if slightly
  // stale) view; it can only under-skip, exactly like losing the race
  // under the former lock-based scan.
  std::unique_ptr<Snapshot> next = successor(*h);
  const int index = static_cast<int>(next->origins.size());
  append(*h, *next, std::move(mfs), origin_worker);
  publish(*h, std::move(next));
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    obs::Registry& reg = tel_->registry();
    const int shard = origin_worker >= 0 ? origin_worker : 0;
    reg.add(shard, ids.inserts);
    reg.add(shard, ids.epoch_publishes);
    // Gauges accumulate on shard 0 (writes are serialized under mu_).
    reg.gauge_add(0, ids.entries, 1);
  }
  update_retained_gauge();
  return index;
}

void ConcurrentMfsPool::load_scope(const std::string& scope,
                                   std::vector<core::Mfs> entries) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<ScopeHandle>& h = scopes_[scope];
  if (!h) h = std::make_shared<ScopeHandle>();
  std::unique_ptr<Snapshot> next = successor(*h);
  const i64 loaded = static_cast<i64>(entries.size());
  for (core::Mfs& mfs : entries) {
    append(*h, *next, std::move(mfs), kWarmStartOrigin);
  }
  publish(*h, std::move(next));
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    tel_->registry().add(0, ids.epoch_publishes);
    tel_->registry().gauge_add(0, ids.entries, loaded);
  }
  update_retained_gauge();
}

void ConcurrentMfsPool::load_entries(const std::string& scope,
                                     std::vector<PoolEntry> entries) {
  if (entries.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<ScopeHandle>& h = scopes_[scope];
  if (!h) h = std::make_shared<ScopeHandle>();
  std::unique_ptr<Snapshot> next = successor(*h);
  const i64 loaded = static_cast<i64>(entries.size());
  for (PoolEntry& entry : entries) {
    append(*h, *next, std::move(entry.mfs), entry.origin);
  }
  publish(*h, std::move(next));
  if (tel_ != nullptr) {
    const obs::PoolIds& ids = tel_->pool_ids();
    tel_->registry().add(0, ids.epoch_publishes);
    tel_->registry().gauge_add(0, ids.entries, loaded);
  }
  update_retained_gauge();
}

std::map<std::string, std::vector<core::Mfs>> ConcurrentMfsPool::export_scopes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<core::Mfs>> out;
  for (const auto& [scope, h] : scopes_) {
    if (h->snap.load(std::memory_order_relaxed) == nullptr) continue;
    out[scope] = h->entries;
  }
  return out;
}

std::vector<PoolEntry> ConcurrentMfsPool::export_entries(
    const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  if (it == scopes_.end()) return {};
  const ScopeHandle& h = *it->second;
  const Snapshot* snap = h.snap.load(std::memory_order_relaxed);
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
  return it == scopes_.end() ? 0 : it->second->entries.size();
}

std::vector<core::Mfs> ConcurrentMfsPool::snapshot(
    const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  return it == scopes_.end() ? std::vector<core::Mfs>{}
                             : it->second->entries;
}

std::vector<std::string> ConcurrentMfsPool::scopes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(scopes_.size());
  for (const auto& [scope, h] : scopes_) {
    // A view resolving its handle creates the map slot before any entry
    // exists; an empty scope is not a populated scope.
    if (h->snap.load(std::memory_order_relaxed) != nullptr) {
      out.push_back(scope);
    }
  }
  return out;
}

u64 ConcurrentMfsPool::epoch(const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  if (it == scopes_.end()) return 0;
  const Snapshot* snap = it->second->snap.load(std::memory_order_relaxed);
  return snap == nullptr ? 0 : snap->epoch;
}

i64 ConcurrentMfsPool::retained_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

i64 ConcurrentMfsPool::retained_snapshots(const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scopes_.find(scope);
  if (it == scopes_.end() || it->second->history.empty()) return 0;
  return static_cast<i64>(it->second->history.size()) - 1;
}

PoolStats ConcurrentMfsPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats s;
  for (const auto& [scope, h] : scopes_) {
    const Snapshot* snap = h->snap.load(std::memory_order_relaxed);
    if (snap == nullptr) continue;
    s.entries += static_cast<i64>(h->entries.size());
    s.warm_entries += snap->warm_entries;
  }
  s.hits = hits_.load(std::memory_order_relaxed);
  s.cross_worker_hits = cross_hits_.load(std::memory_order_relaxed);
  s.warm_hits = warm_hits_.load(std::memory_order_relaxed);
  s.duplicate_inserts = duplicate_inserts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace collie::orchestrator
