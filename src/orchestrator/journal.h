// Durable campaign journal: crash-safety for long searches.
//
// A campaign's value is the anomaly corpus it accumulates, and the paper's
// deployment runs searches for days — so losing a run to a crash anywhere
// before the final checkpoint write is unacceptable.  The journal is an
// append-only file ("collie-journal-v3") the campaign streams into as it
// runs:
//
//   [18-byte magic "collie-journal-v3\n"]
//   frame*  where frame = [u32 payload_len LE][u32 crc32(payload) LE][payload]
//
// Payloads are strict-JSON documents in two vocabularies:
//   * journal-native records, tagged by a "record" key — "begin" (config +
//     realized schedule), "probe" (one executed probe: workload,
//     measurement, post-probe RNG state — a TraceProbe), "mfs_batch" (one
//     streamed extraction with its scope), "resume" (a session boundary
//     marker);
//   * verbatim fleet wire messages, tagged by a "type" key — a completed
//     cell is journaled as the exact PR 9 cell_done document (full
//     CellResult + every insert + the cell's pool-stats delta), so the
//     journal speaks the same schema the fleet, the checkpointer and the
//     knowledge base already parse.
//
// Recovery truncation-scans: frames are validated in order (length sanity,
// then CRC) and the scan stops at the first invalid byte.  The valid prefix
// is the journal; the torn suffix is quarantined to <path>.torn, never
// silently dropped and never allowed to abort recovery.  This is sound
// because of the journal's one structural invariant: ANY frame prefix is a
// resumable state.  Probes lost past the last valid frame are simply
// re-executed live — the splice backend replays the journaled prefix of
// each cell (restoring measurements and RNG state), then switches to the
// real substrate mid-cell.  The resumed campaign's report is byte-identical
// to the uninterrupted run's, with zero probes re-spent inside journaled
// regions (pinned by tests at 1/2/4 workers).
//
// The same probe records make a journal a replayable recording: `campaign
// --replay` re-dispatches the begin record's schedule and answers every
// probe from the journal (journal_replay_factory), with no live substrate
// at all.
#pragma once

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "orchestrator/campaign.h"
#include "workload/backend.h"

namespace collie::core {
class JsonWriter;
class JsonValue;
}  // namespace collie::core

namespace collie::orchestrator {

inline constexpr char kJournalMagic[] = "collie-journal-v3\n";
inline constexpr std::size_t kJournalMagicSize = 18;

// One journaled probe of one context: the workload that was measured, the
// Measurement it produced, and the Rng state the substrate left behind.
// Replaying a probe restores that state, which keeps the *search*
// identical: the same generator feeds measurement jitter and SA decisions.
struct TraceProbe {
  Workload workload;
  workload::Measurement measurement;
  RngState rng_after;
};

// Hex RngState <-> JSON ({"s":[four 16-digit lowercase hex words]}), the
// encoding of a probe record's rng_after.
void rng_state_to_json(const RngState& st, core::JsonWriter* json);
RngState rng_state_from_json(const core::JsonValue& v);

// ---- Frame codec -----------------------------------------------------------

struct JournalRecovery {
  bool existed = false;   // file was present (even if empty/corrupt)
  bool torn = false;      // bytes past the last valid frame were found
  u64 valid_bytes = 0;    // magic + every fully valid frame
  u64 total_bytes = 0;    // file size as found
  std::string torn_path;  // where the torn suffix was quarantined (repair)
  std::vector<std::string> payloads;  // valid frames, in order
  // Non-empty on I/O failure or a journal of a retired format version
  // (checked before any frame is read; the file is left untouched).  Never
  // set for corruption.
  std::string error;
};

// One frame: [u32 payload_len LE][u32 crc32(payload) LE][payload].  A
// journal is kJournalMagic followed by frames.
std::string journal_frame(std::string_view payload);

// Truncation-scan the bytes of a whole journal.  A journal of a retired
// format version ("collie-journal-v1" or "-v2") is an error naming that
// version and this one.  Corruption is never an error: a bad magic or a
// torn frame yields torn=true with the longest valid prefix (valid_bytes=0
// when even the magic is damaged).  Fills every field but `existed` and
// `torn_path`; touches no file.
JournalRecovery scan_journal(std::string_view bytes);

// ---- Recovery -------------------------------------------------------------

// scan_journal over the file at `path`.  A missing file is a fresh journal
// (existed=false); any other read failure sets `error`.  With `repair`, the
// torn suffix is written to <path>.torn and the journal is truncated to its
// valid prefix, ready for appending.
JournalRecovery recover_journal(const std::string& path, bool repair);

// ---- Campaign-level journal sink ------------------------------------------

// Thread-safe record sink shared by every cell of a journaling campaign
// (one mutex acquisition per record; journaling is not a hot path).  Fsync
// cadence: probe records are always appended, the file is synced every
// `journal_every` probes and on every cell_done — durability lag costs at
// most the un-synced tail, which recovery discards and resume re-executes.
class CampaignJournal {
 public:
  // Opens `path` for appending and writes the magic when the file is new
  // or empty; throws std::runtime_error naming the path when it cannot be
  // opened, written or fsynced.  `crash_after_probes` > 0: sync and
  // _exit(137) after journaling that many live probes.  `crash_at_byte` > 0
  // is the deterministic crash-injection point: the write that would extend
  // the file past absolute byte B stops exactly there, flushes, and
  // _exit(137)s — the harness for "kill at any byte offset".
  CampaignJournal(const std::string& path, int journal_every,
                  i64 crash_after_probes = 0, u64 crash_at_byte = 0);

  // Campaign start: config identity + the realized schedule (embedded as a
  // schedule_to_json document, so resume and replay re-execute the exact
  // assignment).
  void begin(const std::string& share, const std::string& strategy, u64 seed,
             int workers, const std::string& backend,
             const std::string& schedule_json);
  // Session boundary: a resumed campaign appends this, never a second
  // "begin" — the journal stays append-only across crashes.
  void resume_marker();
  // One live probe (replayed probes are already journaled; the splice
  // backend never re-records them).
  void probe(const std::string& context, const Workload& w,
             const workload::Measurement& m, const RngState& rng_after);
  // One streamed extraction, as it lands in the pool.
  void mfs_batch(const std::string& context, const std::string& scope,
                 const PoolEntry& entry);
  // A completed cell, as a verbatim fleet cell_done message.  Lease ids
  // start at 1 (in-process campaigns use plan index + 1).  Synced.
  void cell_done(const CellResult& result,
                 const std::vector<PoolEntry>& inserts, const PoolStats& delta,
                 u64 lease);

  i64 probes() const;
  u64 bytes() const;  // absolute file size written so far

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  void append_locked(std::string_view payload);
  void write_locked(std::string_view data);
  // fflush + fsync; throws naming the path and errno.
  void sync_locked();

  mutable std::mutex mu_;
  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> f_;
  u64 bytes_ = 0;
  u64 crash_at_byte_ = 0;
  int every_ = 64;
  i64 crash_after_probes_ = 0;
  i64 probes_ = 0;
  i64 since_sync_ = 0;
};

// ---- Parsed resume state --------------------------------------------------

// A completed cell reconstructed from its journaled cell_done message.
struct RestoredCell {
  CellResult result;
  std::vector<PoolEntry> inserts;  // what the cell added to its scope
  PoolStats delta;                 // the cell's hit/duplicate attribution
};

struct JournalResume {
  bool has_begin = false;
  std::string share;     // ShareScope name the run was recorded under
  std::string strategy;  // Strategy name
  std::string backend;   // substrate
  u64 seed = 0;
  int workers = 0;
  Schedule schedule;  // the realized schedule, re-dispatched on resume/replay
  // Labels of completed cells in journal (completion) order — the order
  // their inserts must be folded back into the pool.
  std::vector<std::string> completion_order;
  std::map<std::string, RestoredCell> completed;
  // Every journaled probe by context, in execution order.  A resumed
  // session journals only the probes it runs live, so records concatenate
  // across sessions: a completed cell's sequence is its whole trajectory
  // (what --replay serves), an incomplete cell's is its splice prefix.
  // `campaign --resume` erases completed cells' sequences after parsing.
  std::map<std::string, std::vector<TraceProbe>> recorded;
  // Streamed extractions of cells that did not complete (checkpoint
  // salvage only — resume re-inserts them by replaying the probes, so the
  // campaign never loads these).  May contain duplicates after a crash
  // during a resumed session; consumers dedupe by MFS index.
  struct PartialExtractions {
    std::string scope;
    std::vector<PoolEntry> entries;
  };
  std::map<std::string, PartialExtractions> partial_inserts;
  i64 probes = 0;    // probe records seen
  int sessions = 1;  // 1 + number of resume markers
};

// Parse recovered payloads into resumable state.  Unknown record/message
// shapes throw core::JsonError (a journal from a newer build must fail
// loudly, never resume wrong).
JournalResume parse_journal(const std::vector<std::string>& payloads);

// Salvage a checkpoint from a journal: completed cells' inserts folded per
// scope in completion order, partial cells' streamed extractions appended
// (knowledge, not completion), completed_cells = completion order.
CampaignCheckpoint journal_to_checkpoint(const JournalResume& resume);

// ---- Mid-cell splice backend ----------------------------------------------

// The journal's substrate: each cell replays its journaled probes as a
// cursor walk (recorded measurement out, recorded RNG state restored, zero
// simulator evaluations, workload equality enforced — a different workload
// at the cursor throws), then splices onto the live inner backend and
// journals every new probe.  Cells with no journaled probes run live from
// probe 0 — a fresh journaling campaign is the empty-prefix special case of
// resume, and an offline replay is the no-live-tail one.
//
// kind() reports kTrace so Campaign's determinism gate applies: threaded
// execution under subsystem-scoped sharing is rejected (record, resume and
// replay need schedule-independent cell trajectories for their
// byte-identity guarantees).
class SpliceBackendFactory final : public workload::BackendFactory {
 public:
  // `inner` = the real substrate factory (null = the built-in simulator).
  // `resume` may be null (fresh journaling run); `journal` may be null (no
  // live probe is journaled).  Both must outlive the factory and every
  // backend it creates.
  SpliceBackendFactory(std::shared_ptr<workload::BackendFactory> inner,
                       const JournalResume* resume, CampaignJournal* journal);

  workload::BackendKind kind() const override {
    return workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override;
  std::unique_ptr<workload::Backend> create(const sim::Subsystem& sys,
                                            const workload::EngineOptions& opts,
                                            const std::string& context) override;

  // Probes served from the journaled prefix vs executed live — the "zero
  // probes re-spent inside journaled regions" acceptance counter.
  i64 replayed() const { return replayed_.load(); }
  i64 live() const { return live_.load(); }

 private:
  std::shared_ptr<workload::BackendFactory> inner_;
  const JournalResume* resume_;
  CampaignJournal* journal_;
  std::atomic<i64> replayed_{0};
  std::atomic<i64> live_{0};
};

// The offline substrate of `campaign --replay`: a SpliceBackendFactory over
// `recording` with no live tail.  Every probe is answered from the cell's
// journaled probe records; a probe past the end of them throws, so a
// replay makes zero simulator evaluations by construction.  Reports
// attribute the recording's substrate.  `recording` must outlive the
// factory.
std::shared_ptr<workload::BackendFactory> journal_replay_factory(
    const JournalResume& recording);

// ---- MfsStore wrapper that journals every insert --------------------------

// Scoped store handed to a journaling cell's driver: forwards everything to
// the pool view, journals each insert as an mfs_batch record, and keeps the
// cell's insert list for its cell_done frame.  With a null journal it only
// collects the insert list (the fleet executor's use: inserts travel to the
// coordinator in the cell_done message).
class JournalingStore final : public core::MfsStore {
 public:
  JournalingStore(ConcurrentMfsPool::View& view, CampaignJournal* journal,
                  std::string context, std::string scope, int worker);

  bool covers(const core::SearchSpace& space, const Workload& w) override;
  bool covers_preloaded(const core::SearchSpace& space,
                        const Workload& w) override;
  int insert(const core::SearchSpace& space, core::Mfs mfs) override;
  std::size_t size() const override;
  std::vector<core::Mfs> snapshot() const override;

  const std::vector<PoolEntry>& inserts() const { return inserts_; }

 private:
  ConcurrentMfsPool::View& view_;
  CampaignJournal* journal_;
  std::string context_;
  std::string scope_;
  int worker_;
  std::vector<PoolEntry> inserts_;
};

}  // namespace collie::orchestrator
