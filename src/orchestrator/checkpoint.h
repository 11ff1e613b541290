// Cross-campaign MFS persistence (the paper's §6 deployment loop).
//
// A checkpoint is everything tomorrow's campaign needs to not redo today's
// work: the shared pool's scopes (every extracted MFS, per scope) and the
// labels of cells that ran to completion.  Warm-starting from it has two
// effects, both pinned by tests:
//   * loaded scopes pre-seed the ConcurrentMfsPool, so MatchMFS skips every
//     workload inside an already-explained region — zero probes are spent
//     there (the search drivers consult covers_preloaded for the sampled
//     points that bypass the regular skip);
//   * completed cells are skipped outright and reported in the coverage
//     table's `skipped` column, not inflated into `covered`.
// Re-running an identical campaign from its own checkpoint therefore
// performs zero experiments — the two-stage smoke CI pins exactly that.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/mfs.h"

namespace collie::orchestrator {

struct CampaignResult;  // orchestrator/campaign.h

struct CampaignCheckpoint {
  // The ShareScope name ("subsystem"/"cell") the campaign ran under.  Scope
  // keys are only meaningful under the same sharing policy — loading
  // cell-scoped entries into a subsystem-share campaign would register them
  // under keys no view ever queries, silently voiding the zero-reprobe
  // guarantee — so Campaign::run rejects a mismatch.
  std::string share = "subsystem";
  // Pool scopes in insertion order: scope name -> extracted MFSes.
  std::map<std::string, std::vector<core::Mfs>> scopes;
  // Labels of cells that ran to completion (or were themselves warm-start
  // skips of an earlier run), in plan order.
  std::vector<std::string> completed_cells;

  bool completed(const std::string& label) const;

  // JSON round trip: to_json(from_json(to_json(x))) is byte-identical.
  // from_json throws core::JsonError on truncated/garbled documents, naming
  // the byte offset where parsing stopped.  There is no lenient load:
  // checkpoints are written atomically, and a crashed campaign's knowledge
  // is salvaged from its journal (journal_to_checkpoint).
  std::string to_json() const;
  static CampaignCheckpoint from_json(const std::string& text);
};

// Snapshot a finished campaign: its exported pool scopes plus every cell
// that completed (failed cells stay un-checkpointed so a re-run retries
// them).
CampaignCheckpoint make_checkpoint(const CampaignResult& result);

}  // namespace collie::orchestrator
