// Anomaly knowledge-base corpus: the cross-campaign MFS asset.
//
// Campaigns emit checkpoints (orchestrator/checkpoint.h) — per-scope MFS
// lists from one night's run.  The corpus is what those become once they
// are worth serving: checkpoints from many runs merged per canonical
// (subsystem, fabric, cc) scope, compacted with core::same_anomaly_region
// (the exact criterion campaign reports dedupe by) while preserving the
// provenance of every merged duplicate, and joined with the mechanism
// evaluation view — each entry carries the simulator's dominant bottleneck
// for its witness plus the catalog's Table-2-style label
// (catalog::label_by_mechanism, region labeling as fallback), so a query
// hit answers "whose fault is it?", not just "is it known?".
//
// On disk the corpus is a strict-JSON collie-kb-v1 document through the
// existing core::JsonWriter / core::JsonValue pair: to_json(from_json(x))
// is byte-identical and truncated/garbled documents throw core::JsonError
// (schema in README.md).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/mfs.h"
#include "orchestrator/checkpoint.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"

namespace collie::kb {

// Canonical (subsystem, fabric, cc) scope of one corpus shard.  MFS
// conditions are index-based against one subsystem's search space, so this
// is the unit within which entries are comparable and queryable.
struct ScopeKey {
  char subsystem = 'F';
  std::string fabric = "pair";
  std::string cc = "off";

  // The pool's subsystem-scope spelling: "B", "F@hetero", "B+dcqcn",
  // "F@fanin4+mistuned".
  std::string canonical() const;
  sim::Subsystem materialize() const;
};

// Parse a pool scope or cell label into its canonical key.  Accepts both
// subsystem scopes ("B", "F@hetero+dcqcn") and cell labels ("B/Diag#0",
// from cell-share checkpoints) — the cell suffix is dropped, since two
// cells of one (subsystem, fabric, cc) space hold mutually comparable
// MFSes.  Throws core::JsonError on an unknown subsystem, fabric or cc
// scenario name: a scope from a newer build must fail loudly, never load
// as the wrong search space.
ScopeKey parse_scope(const std::string& scope);

// Where one merged region came from: the checkpoint (or tag) it was added
// under and the raw scope string it was stored under there.
struct Provenance {
  std::string source;
  std::string scope;
};

struct CorpusEntry {
  core::Mfs mfs;
  // Every origin that contributed this region, first-added first; more
  // than one element means same-region duplicates were compacted into
  // this entry.
  std::vector<Provenance> sources;
  // Mechanism join, filled by CorpusBuilder::build(): the simulator's
  // dominant bottleneck for the witness, the catalog anomaly id it labels
  // (0 = uncatalogued), and the Table-2-style root-cause text.
  sim::Bottleneck dominant = sim::Bottleneck::kNone;
  int anomaly_id = 0;
  std::string label;
};

struct CorpusShard {
  ScopeKey key;
  std::vector<CorpusEntry> entries;
};

struct Corpus {
  // Canonical scope -> shard; std::map keeps document order deterministic.
  std::map<std::string, CorpusShard> shards;

  std::size_t size() const;
  std::string to_json() const;  // collie-kb-v1
  // Throws core::JsonError on truncation, garbling, an unknown scope /
  // symptom / bottleneck name, or a shard keyed off its canonical scope.
  static Corpus from_json(const std::string& text);
};

// Merges checkpoints (or individual entries) and compacts them into a
// corpus.  Dedup criterion: core::same_anomaly_region against the shard's
// search space — the first-added entry wins, later duplicates only append
// their provenance.
class CorpusBuilder {
 public:
  // Every scope of `ck`, tagged with `source` (typically the checkpoint's
  // filename).  Scopes are canonicalized, so checkpoints recorded under
  // conflicting --share policies (subsystem scopes vs cell labels) merge
  // into the same shards.
  void add_checkpoint(const orchestrator::CampaignCheckpoint& ck,
                      const std::string& source);
  void add(const std::string& scope, core::Mfs mfs, Provenance origin);
  // Merge an existing corpus (e.g. yesterday's) before new checkpoints.
  void add_corpus(const Corpus& corpus, const std::string& source);

  // Compact and label.  `evaluate_mechanisms` re-runs each deduped
  // witness through the workload engine (fixed RNG stream) to fill
  // dominant/anomaly_id/label; false keeps entries unlabeled (tests that
  // only exercise compaction skip the probes).
  Corpus build(bool evaluate_mechanisms = true) const;

 private:
  struct Pending {
    core::Mfs mfs;
    Provenance origin;
    // Pre-labeled entries (add_corpus) keep their join unless rebuilt.
    sim::Bottleneck dominant = sim::Bottleneck::kNone;
    int anomaly_id = 0;
    std::string label;
    bool labeled = false;
  };
  std::map<std::string, std::vector<Pending>> pending_;  // canonical scope
  std::map<std::string, ScopeKey> keys_;
};

// Root-cause text for a mechanism-labeled id: the catalog row's Appendix-A
// heading for Table-2 ids, fixed descriptions for the fabric-level ids
// (101/102) that deliberately have no catalog row, "" for id 0.
std::string root_cause_text(int anomaly_id);

}  // namespace collie::kb
