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
// + the warm-start mask) through one atomic pointer.  The Mfs payloads are
// not in the snapshot: they live once in the scope's handle, writer-owned
// and read only under the pool mutex (duplicate check, exports).  So an
// insert copies origins and the flat index, never a witness or condition
// list, and allocates the same however many entries the scope holds.  The
// covers()/covers_preloaded() fast path loads the pointer and queries the
// index — no lock acquisition of any kind, readers never wait on writers or
// on each other (not even on a shared_ptr control block).  Writers
// (insert/load_scope) serialize on a mutex and publish the successor
// snapshot (epoch + 1) with a seq_cst store.
//
// Reclamation (the keep_epochs policy): superseded snapshots are NOT
// retained until pool destruction — corpus-scale stores fed by long
// campaigns would otherwise grow quadratically in inserted MFSes (every
// insert copies the index, and every copy used to stay live).
// Instead each View owns a hazard slot: before using a snapshot it
// announces the raw pointer (seq_cst store) and re-checks that the pointer
// is still published; a writer retires snapshots older than the newest
// keep_epochs superseded ones, but frees only those no slot announces.
// A snapshot that is still announced gets a grace period: it stays on the
// scope's history list and is re-examined on the next write.  Readers
// therefore never observe a freed snapshot (see DESIGN.md for the ordering
// argument), retention is bounded by keep_epochs + concurrent readers, and
// the pool.retained_snapshots gauge returns to that bound instead of
// climbing monotonically.  The pool-level accessors (size/snapshot/stats/
// export_scopes/covers) are cold paths and take the writer mutex instead of
// a slot; only Views are lock-free.  Views must be destroyed before the
// pool.  First-cover order and hit provenance (cross-worker / warm-start
// attribution) are exactly the linear scan's: the index returns the lowest
// insertion position that matches.
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
};

// An exported pool entry with its origin attribution — the unit the fleet
// streams between a worker's local pool and the coordinator's shared one
// (origin decides whether a later hit counts as cross-worker or warm).
struct PoolEntry {
  core::Mfs mfs;
  int origin = -1;
};

struct MfsPoolOptions {
  // Superseded snapshots retained per scope beyond the published one before
  // a write retires them (freed as soon as no reader announces them).  0 is
  // legal: stragglers are still protected by their hazard slots.  Retention
  // never changes answers — only how long old snapshots stay resident — so
  // campaign reports are bit-identical across policies.
  int keep_epochs = 8;
};

class ConcurrentMfsPool {
 private:
  struct Snapshot;
  struct ScopeHandle;
  struct ReaderSlot;

 public:
  explicit ConcurrentMfsPool(MfsPoolOptions opts = {}) : opts_(opts) {}
  ~ConcurrentMfsPool() = default;
  ConcurrentMfsPool(const ConcurrentMfsPool&) = delete;
  ConcurrentMfsPool& operator=(const ConcurrentMfsPool&) = delete;

  // Origin id of entries loaded from a warm-start checkpoint: no live worker
  // ever carries it, so loaded hits are attributed to the previous campaign
  // rather than counted as cross-worker sharing.
  static constexpr int kWarmStartOrigin = -2;

  // A scoped, worker-bound core::MfsStore handle.  Hit counters are owned by
  // the worker thread driving the view; pool-wide aggregates are atomic on
  // the pool.  Movable (not copyable: each view owns a hazard slot) so
  // Campaign can stage views per cell.  The view resolves its scope's handle
  // and slot once and then reads published snapshots lock-free.  Views must
  // not outlive the pool.
  class View final : public core::MfsStore {
   public:
    View(ConcurrentMfsPool* pool, std::string scope, int worker)
        : pool_(pool), scope_(std::move(scope)), worker_(worker) {}
    ~View() override;
    View(View&& other) noexcept;
    View& operator=(View&& other) noexcept;
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
    const ScopeHandle* handle();
    // Announce-and-validate: returns the current snapshot with this view's
    // hazard slot protecting it (null when the scope is empty; nothing to
    // protect then).  Must be paired with end_read().
    const Snapshot* begin_read();
    void end_read();
    void release();

    ConcurrentMfsPool* pool_;
    std::string scope_;
    int worker_;
    // Resolved lazily (one find-or-create under the pool mutex), then every
    // covers() is a lock-free snapshot load.
    std::shared_ptr<ScopeHandle> handle_;
    ReaderSlot* slot_ = nullptr;
    i64 hits_ = 0;
    i64 cross_hits_ = 0;
    i64 warm_hits_ = 0;
    i64 dup_inserts_ = 0;
  };

  View view(std::string scope, int worker) {
    return View(this, std::move(scope), worker);
  }

  // `requester` is the worker asking; when the matching MFS was inserted by
  // a different worker, *cross is set; when it was loaded from a warm-start
  // checkpoint, *warm is set instead (never both).  Cold path: serializes
  // with writers (use a View for the lock-free path).
  bool covers(const std::string& scope, const core::SearchSpace& space,
              const Workload& w, int requester, bool* cross,
              bool* warm = nullptr);
  // True when a warm-start-loaded entry of `scope` covers `w`.  Counted as
  // a (warm) hit — this is the MatchMFS path the search drivers use for
  // sampled points that bypass the full skip.  Cold path (see covers()).
  bool covers_preloaded(const std::string& scope,
                        const core::SearchSpace& space, const Workload& w);
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
  // and miss counters land in the requester's shard on the lock-free read
  // path; insert/publish counters and the entries/retained gauges update
  // under the writer mutex.
  void set_telemetry(obs::Telemetry* telemetry) { tel_ = telemetry; }

  std::size_t size(const std::string& scope) const;
  std::vector<core::Mfs> snapshot(const std::string& scope) const;
  std::vector<std::string> scopes() const;
  PoolStats stats() const;
  // Publication count of a scope's snapshot (0 when the scope does not
  // exist yet).  Every insert/load_scope bumps it; tests use this to pin
  // the publish-on-write, never-in-place invariant.  Reclamation never
  // rewinds it: epochs count publications, not retained snapshots.
  u64 epoch(const std::string& scope) const;
  // Superseded snapshots currently retained (all scopes / one scope).
  // Bounded by keep_epochs plus the number of concurrently-reading views;
  // the racing-insert tests pin the bound.
  i64 retained_snapshots() const;
  i64 retained_snapshots(const std::string& scope) const;
  const MfsPoolOptions& options() const { return opts_; }

 private:
  static constexpr int kNumSymptoms = 3;  // core::Symptom enumerator count

  // Immutable once published.  Holds only what the lock-free readers need:
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

  // One view's hazard slot: the snapshot it is currently reading, or null
  // when quiescent.  Writers never free an announced snapshot.
  struct ReaderSlot {
    std::atomic<const Snapshot*> protect{nullptr};
  };

  struct ScopeHandle {
    // The published snapshot; readers load-acquire and announce, writers
    // store-seq_cst under mu_.  Superseded snapshots stay in `history`
    // (written only under mu_) until reclaimed.
    std::atomic<const Snapshot*> snap{nullptr};
    // Oldest-first; back() is the published snapshot.
    std::vector<std::unique_ptr<const Snapshot>> history;
    // Every hazard slot ever handed to a view of this scope (stable
    // addresses; writers scan them all) plus the free list dead views
    // returned theirs to.
    std::vector<std::unique_ptr<ReaderSlot>> slots;
    std::vector<ReaderSlot*> free_slots;
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

  // Find-or-create + hazard-slot acquisition for a view, under mu_.
  std::shared_ptr<ScopeHandle> bind(const std::string& scope,
                                    ReaderSlot** slot);
  void release_slot(ScopeHandle& h, ReaderSlot* slot);
  // A copy of `h`'s published snapshot (or an empty one) with the epoch
  // bumped, ready for append() + publish().  Caller must hold mu_.
  std::unique_ptr<Snapshot> successor(const ScopeHandle& h);
  // Register one entry: payload into `h`, origin + index bits into `next`.
  // Caller must hold mu_.
  void append(ScopeHandle& h, Snapshot& next, core::Mfs mfs, int origin);
  // Publish `next` as `h`'s current snapshot and reclaim retired history.
  // Caller must hold mu_.
  const Snapshot* publish(ScopeHandle& h, std::unique_ptr<Snapshot> next);
  void reclaim(ScopeHandle& h);
  void update_retained_gauge();

  bool covers_snapshot(const Snapshot* snap, const core::SearchSpace& space,
                       const Workload& w, int requester, bool* cross,
                       bool* warm);
  bool covers_preloaded_snapshot(const Snapshot* snap,
                                 const core::SearchSpace& space,
                                 const Workload& w, int requester);

  // Guards the scope map, serializes writers and the cold accessors; never
  // taken by a View's covers() fast path.
  mutable std::mutex mu_;
  MfsPoolOptions opts_;
  std::map<std::string, std::shared_ptr<ScopeHandle>> scopes_;
  // Sum over scopes of (history.size() - 1), maintained under mu_.
  i64 retained_ = 0;
  std::atomic<i64> hits_{0};
  std::atomic<i64> cross_hits_{0};
  std::atomic<i64> warm_hits_{0};
  std::atomic<i64> duplicate_inserts_{0};
  obs::Telemetry* tel_ = nullptr;
};

}  // namespace collie::orchestrator
