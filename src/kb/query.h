// Queryable knowledge base: "would my workload hit a known anomaly, and
// whose fault is it?" in microseconds.
//
// The corpus is sharded by canonical (subsystem, fabric, cc) scope; each
// shard is an immutable snapshot (entries + a core::MfsIndex over them +
// the shard's own SearchSpace) published behind one atomic pointer, so
// queries are lock-free and never wait on a merge.  Merges (rare: nightly
// corpus refreshes) serialize on a mutex, rebuild only the touched shards,
// and publish a successor directory; superseded directories/shards are
// retained until the KnowledgeBase is destroyed, which is the right
// trade-off here — merges are O(days), not O(inserts), so retention is
// bounded by the merge count and reference counting would buy nothing.
//
// A hit returns the covering MFS plus the mechanism join computed at
// corpus build time: dominant bottleneck, catalog anomaly id, and the
// Table-2-style root-cause label.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/mfs_index.h"
#include "core/space.h"
#include "kb/corpus.h"

namespace collie::kb {

struct Query {
  // Raw scope (canonicalized per query; unknown scopes answer covered =
  // false rather than throwing — a server must answer, not die).
  std::string scope;
  Workload workload;
};

struct QueryResult {
  bool covered = false;
  // Canonical scope consulted ("" when the scope is unknown/unparseable).
  std::string scope;
  // Position of the covering entry in its shard (-1 on a miss), and the
  // entry's payload copied out of the snapshot.
  int entry = -1;
  core::Mfs mfs;
  sim::Bottleneck dominant = sim::Bottleneck::kNone;
  int anomaly_id = 0;
  std::string label;
};

class KnowledgeBase {
 public:
  KnowledgeBase() = default;
  ~KnowledgeBase() = default;
  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;

  // Fold a corpus in: per-scope compaction against what is already loaded
  // (same_anomaly_region, provenance appended), index rebuild for the
  // touched shards, one directory publication.
  void merge(const Corpus& corpus);

  QueryResult query(const std::string& scope, const Workload& w) const;
  // One directory load for the whole batch: every query in the batch sees
  // the same corpus generation.
  std::vector<QueryResult> query_batch(const std::vector<Query>& queries) const;

  std::vector<std::string> scopes() const;
  std::size_t size() const;          // entries across all shards
  u64 generation() const;            // directory publications so far

 private:
  struct Shard {
    ScopeKey key;
    // Owned: the index's feature encodings are only meaningful against the
    // space they were built from.  (unique_ptr because SearchSpace has no
    // default construction — it is always derived from a subsystem.)
    std::unique_ptr<core::SearchSpace> space;
    std::vector<CorpusEntry> entries;
    core::MfsIndex index;
  };
  // Immutable scope -> shard map, swapped wholesale on merge.
  struct Directory {
    u64 generation = 0;
    std::map<std::string, const Shard*> shards;
  };

  QueryResult query_directory(const Directory* dir, const std::string& scope,
                              const Workload& w) const;

  mutable std::mutex mu_;  // serializes merges; never taken by queries
  std::atomic<const Directory*> dir_{nullptr};
  std::vector<std::unique_ptr<const Directory>> dir_history_;
  std::vector<std::unique_ptr<const Shard>> shard_history_;
};

}  // namespace collie::kb
