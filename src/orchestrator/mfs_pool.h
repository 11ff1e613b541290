// Shared concurrent MFS pool: the campaign-wide MatchMFS backend.
//
// The pool holds extracted MFSes partitioned into named scopes.  All cells
// of a campaign that search the same subsystem map to the same scope (under
// ShareScope::kSubsystem), so one worker's extraction immediately prunes
// every other worker's search of that subsystem — Algorithm 1's
// "skip already-explained regions" lifted to fleet scale.  An MFS is a
// region of one subsystem's search space, so scopes never span subsystems:
// condition indices (memory placements, MTU grids) are only meaningful
// against the space they were extracted from.
//
// Workers never touch the pool directly; each cell gets a View — a scoped,
// worker-bound handle implementing core::MfsStore that the SearchDriver
// consults.  Views attribute MatchMFS hits: a hit on an MFS inserted by a
// different worker is a cross-worker skip, the quantity the campaign report
// surfaces as the benefit of sharing.
//
// Concurrency: each scope publishes an immutable, epoch-versioned snapshot
// (per-entry origins in insertion order + a core::MfsIndex over the entries
// + the warm-start mask) as a shared_ptr<const Snapshot>, swapped under the
// pool mutex.  The Mfs payloads are not in the snapshot: they live once in
// the scope's handle, writer-owned and read only under the pool mutex
// (duplicate check, exports).  So an insert copies origins and the flat
// index, never a witness or condition list, and allocates the same however
// many entries the scope holds.  Writers (insert/load_scope/load_entries)
// serialize on the mutex, publish the successor snapshot (epoch + 1) and
// then store the scope's epoch counter with release order.
//
// Each View caches the snapshot it last read together with its epoch.  The
// covers()/covers_preloaded() fast path is one acquire load of the scope's
// epoch; only when it has moved (about once per insert per view) does the
// view take the mutex and copy the published shared_ptr.  Reference
// counting frees a superseded snapshot when its last holder lets go, so at
// most one superseded snapshot per live view stays resident.  Coverage a
// view reports is monotone: it only ever moves to a newer snapshot, and
// snapshots only grow.  MatchMFS runs only through views; the pool-level
// accessors (size/snapshot/stats/export_scopes) are cold paths and read
// under the mutex.  Views
// must be destroyed before the pool.  First-cover order and hit provenance
// (cross-worker / warm-start attribution) are exactly the linear scan's:
// the index returns the lowest insertion position that matches.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/mfs_index.h"
#include "core/mfs_store.h"
#include "obs/telemetry.h"

namespace collie::orchestrator {

struct PoolStats {
  i64 entries = 0;            // MFSes currently stored, all scopes
  i64 warm_entries = 0;       // entries loaded from a warm-start checkpoint
  i64 hits = 0;               // MatchMFS hits served
  i64 cross_worker_hits = 0;  // hits on an MFS inserted by another worker
  i64 warm_hits = 0;          // hits on a loaded (warm-start) entry
  i64 duplicate_inserts = 0;  // inserts whose witness was already covered

  // Fold in hit and duplicate observations another pool made (entry counts
  // come from a pool's contents and are never summed).
  void add_observations(const PoolStats& d) {
    hits += d.hits;
    cross_worker_hits += d.cross_worker_hits;
    warm_hits += d.warm_hits;
    duplicate_inserts += d.duplicate_inserts;
  }
};

// An exported pool entry with its origin attribution — the unit the fleet
// streams between a worker's local pool and the coordinator's shared one
// (origin decides whether a later hit counts as cross-worker or warm).
struct PoolEntry {
  core::Mfs mfs;
  int origin = -1;
};

// The pool has no settings.  The empty struct stays only because the
// campaign benchmark constructs its pool from CampaignConfig::pool.
struct MfsPoolOptions {};

class ConcurrentMfsPool {
 private:
  struct Snapshot;
  struct ScopeHandle;

 public:
  explicit ConcurrentMfsPool(MfsPoolOptions = {}) {}
  ~ConcurrentMfsPool() = default;
  ConcurrentMfsPool(const ConcurrentMfsPool&) = delete;
  ConcurrentMfsPool& operator=(const ConcurrentMfsPool&) = delete;

  // Origin id of entries loaded from a warm-start checkpoint: no live worker
  // ever carries it, so loaded hits are attributed to the previous campaign
  // rather than counted as cross-worker sharing.
  static constexpr int kWarmStartOrigin = -2;

  // A scoped, worker-bound core::MfsStore handle.  Hit counters are owned by
  // the worker thread driving the view; pool-wide aggregates are atomic on
  // the pool.  Movable (not copyable: a copy would count its hits twice)
  // so Campaign can stage views per cell.  The view resolves its scope's handle
  // once and re-reads the published snapshot only when the scope's epoch
  // has moved.  Views must not outlive the pool.
  class View final : public core::MfsStore {
   public:
    View(ConcurrentMfsPool* pool, std::string scope, int worker)
        : pool_(pool), scope_(std::move(scope)), worker_(worker) {}
    ~View() override = default;
    View(View&& other) noexcept = default;
    View& operator=(View&& other) noexcept = default;
    View(const View&) = delete;
    View& operator=(const View&) = delete;

    bool covers(const core::SearchSpace& space, const Workload& w) override;
    bool covers_preloaded(const core::SearchSpace& space,
                          const Workload& w) override;
    int insert(const core::SearchSpace& space, core::Mfs mfs) override;
    std::size_t size() const override;
    std::vector<core::Mfs> snapshot() const override;

    // Hits this view served from MFSes another worker inserted.
    i64 cross_worker_hits() const { return cross_hits_; }
    // Hits this view served from warm-start (checkpoint-loaded) MFSes.
    i64 warm_hits() const { return warm_hits_; }
    i64 hits() const { return hits_; }
    // Inserts through this view whose witness was already covered — the
    // per-cell slice of PoolStats::duplicate_inserts (the campaign journal
    // needs per-cell attribution, the fleet gets it free from per-lease
    // local pools).
    i64 duplicate_inserts() const { return dup_inserts_; }
    const std::string& scope() const { return scope_; }

   private:
    // The scope's published snapshot (null while the scope is empty),
    // re-copied under the pool mutex only when the epoch has moved.
    const Snapshot* current();
    // Count one MatchMFS answer on this view, the pool and the telemetry
    // shard of this view's worker; each returns the answer.
    bool hit(bool cross, bool warm);
    bool miss();

    ConcurrentMfsPool* pool_;
    std::string scope_;
    int worker_;
    // Resolved lazily (one find-or-create under the pool mutex).
    const ScopeHandle* handle_ = nullptr;
    std::shared_ptr<const Snapshot> snap_;
    u64 seen_epoch_ = 0;  // snap_'s epoch; 0 = nothing read yet
    i64 hits_ = 0;
    i64 cross_hits_ = 0;
    i64 warm_hits_ = 0;
    i64 dup_inserts_ = 0;
  };

  View view(std::string scope, int worker) {
    return View(this, std::move(scope), worker);
  }

  // `*duplicate` (optional) reports whether the insert's witness was
  // already covered by a same-symptom entry (the stats' duplicate-insert
  // criterion) — per-call attribution for callers that track it per view.
  int insert(const std::string& scope, const core::SearchSpace& space,
             core::Mfs mfs, int origin_worker, bool* duplicate = nullptr);

  // Register a checkpointed scope: entries are re-indexed in load order and
  // attributed to kWarmStartOrigin.  Fresh inserts append after them.
  void load_scope(const std::string& scope, std::vector<core::Mfs> entries);
  // Origin-preserving append: entries are re-indexed in load order but keep
  // their per-entry origin (kWarmStartOrigin entries count as warm).  No
  // duplicate accounting — the pool that first accepted the insert already
  // counted it.  This is how the fleet replays a worker's streamed inserts
  // into the coordinator's pool, and how a lease preloads a replacement
  // worker with everything a dead one had explained.
  void load_entries(const std::string& scope, std::vector<PoolEntry> entries);
  // Every scope's entries in insertion order — the persistence snapshot a
  // checkpoint serializes.  std::map keeps scope order deterministic.
  std::map<std::string, std::vector<core::Mfs>> export_scopes() const;
  // One scope's entries with origin attribution, insertion order (empty
  // when the scope does not exist) — the fleet's lease-preload payload.
  std::vector<PoolEntry> export_entries(const std::string& scope) const;

  // Attach a telemetry sink (optional; must outlive the pool's use).  Hit
  // and miss counters land in the requester's shard on the view read path;
  // insert/publish counters and the entries gauge update under the writer
  // mutex.
  void set_telemetry(obs::Telemetry* telemetry) { tel_ = telemetry; }

  std::size_t size(const std::string& scope) const;
  std::vector<core::Mfs> snapshot(const std::string& scope) const;
  PoolStats stats() const;
  // Publication count of a scope's snapshot (0 when the scope does not
  // exist yet).  Every insert/load_scope bumps it; tests use this to pin
  // the publish-on-write, never-in-place invariant.
  u64 epoch(const std::string& scope) const;

 private:
  static constexpr int kNumSymptoms = 3;  // core::Symptom enumerator count

  // Immutable once published.  Holds only what the view readers need:
  // each entry's origin (hit attribution), the index and the warm-start
  // mask.  The Mfs payloads stay in the ScopeHandle, so publishing a
  // successor copies no witness patterns or condition lists.
  struct Snapshot {
    u64 epoch = 0;
    std::vector<int> origins;  // per entry, insertion order
    core::MfsIndex index;
    std::vector<u64> warm_mask;  // bits of kWarmStartOrigin entries
    i64 warm_entries = 0;
  };

  struct ScopeHandle {
    // The published snapshot (null until the first write); read and
    // replaced only under mu_.
    std::shared_ptr<const Snapshot> snap;
    // snap->epoch, stored with release order after each publish, so a view
    // can tell without the mutex whether its cached snapshot is current.
    std::atomic<u64> epoch{0};
    // Writer-owned state, read and written only under mu_.  `entries` are
    // the published entries' payloads in insertion order (the snapshot's
    // index positions).  Per-symptom entry bitmask + positions: the
    // duplicate-insert check answers "does an existing same-symptom region
    // cover this witness?" through the index (masked first_match) instead
    // of re-scanning every entry, and restricts the reverse-direction probe
    // to same-symptom entries only.
    std::vector<core::Mfs> entries;
    std::array<std::vector<u64>, kNumSymptoms> symptom_mask;
    std::array<std::vector<u32>, kNumSymptoms> by_symptom;
  };

  // A copy of `h`'s published snapshot (or an empty one) with the epoch
  // bumped, ready for append() + publish().  Caller must hold mu_.
  std::shared_ptr<Snapshot> successor(const ScopeHandle& h);
  // Register one entry: payload into `h`, origin + index bits into `next`.
  // Caller must hold mu_.
  void append(ScopeHandle& h, Snapshot& next, core::Mfs mfs, int origin);
  // Publish `next` as `h`'s current snapshot, then its epoch.  Caller must
  // hold mu_.
  static void publish(ScopeHandle& h, std::shared_ptr<const Snapshot> next);

  // Guards the scope map and every handle's snapshot, serializes writers
  // and the cold accessors.  A View takes it only when its scope's epoch
  // has moved.
  mutable std::mutex mu_;
  // Handles are never erased, so the addresses views hold stay valid.
  std::map<std::string, ScopeHandle> scopes_;
  std::atomic<i64> hits_{0};
  std::atomic<i64> cross_hits_{0};
  std::atomic<i64> warm_hits_{0};
  std::atomic<i64> duplicate_inserts_{0};
  obs::Telemetry* tel_ = nullptr;
};

}  // namespace collie::orchestrator
