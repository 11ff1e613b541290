// The durability layer's contract, fuzzed (same harness discipline as
// tests/persistence_test.cc):
//   * crc32 matches the IEEE check value and chains incrementally;
//   * atomic_write publishes whole documents or nothing;
//   * the collie-journal-v3 frame codec (journal_frame / scan_journal)
//     round-trips, and the scan is a truncation scan — EVERY byte prefix of
//     a valid journal recovers without error to a frame prefix of the
//     original (the structural invariant mid-cell resume is built on),
//     targeted garbles and random byte flips quarantine the damaged suffix
//     instead of trusting it.  The fuzz runs in memory; each property keeps
//     one leg on disk through recover_journal, where a repaired journal
//     accepts appends and an unreadable or unsyncable file is an error;
//   * parse_journal reconstructs resumable state from the two record
//     vocabularies and rejects unknown shapes loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/rng.h"
#include "core/json_reader.h"
#include "core/search.h"
#include "core/serialize.h"
#include "orchestrator/checkpoint.h"
#include "orchestrator/journal.h"
#include "orchestrator/scheduler.h"
#include "sim/subsystem.h"

namespace collie::orchestrator {
namespace {

using core::JsonError;

std::string tmp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "collie_journal_test_" + name;
  std::remove(path.c_str());
  std::remove((path + ".torn").c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// ---- crc32 ------------------------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValueAndChains) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(durable_io::crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(durable_io::crc32(std::string("")), 0u);
  // Incremental chaining: crc32(b, crc32(a)) == crc32(a + b).
  const std::string a = "collie-jour";
  const std::string b = "nal-v1\n and some payload bytes \x00\x7f\x01";
  EXPECT_EQ(durable_io::crc32(b, durable_io::crc32(a)),
            durable_io::crc32(a + b));
  // Sensitivity: any single-byte change moves the checksum.
  std::string c = a + b;
  c[3] ^= 0x40;
  EXPECT_NE(durable_io::crc32(c), durable_io::crc32(a + b));
}

// ---- atomic_write -----------------------------------------------------------

TEST(AtomicWrite, PublishesWholeDocumentsAndReportsFailures) {
  const std::string path = tmp_path("atomic.json");
  EXPECT_TRUE(durable_io::atomic_write(path, "first document\n"));
  EXPECT_EQ(read_file(path), "first document\n");
  // Replacement is wholesale: no residue of the longer old content.
  EXPECT_TRUE(durable_io::atomic_write(path, "2nd\n"));
  EXPECT_EQ(read_file(path), "2nd\n");
  // No sibling temporary left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // Failure is reported, not thrown, and the target is untouched.
  std::string error;
  EXPECT_FALSE(durable_io::atomic_write(
      "/nonexistent_collie_dir/impossible.json", "x", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(read_file(path), "2nd\n");
  std::remove(path.c_str());
}

// ---- journal frames ---------------------------------------------------------

std::vector<std::string> sample_payloads() {
  return {
      R"({"record":"begin","share":"cell"})",
      "",  // empty payloads are legal frames
      R"({"record":"probe","context":"B/Diag#0","n":1})",
      std::string(300, 'x'),
      R"({"record":"event","what":"lease"})",
  };
}

// The magic plus one frame per sample payload, built in memory.
std::string build_journal() {
  std::string bytes = kJournalMagic;
  for (const std::string& p : sample_payloads()) bytes += journal_frame(p);
  return bytes;
}

TEST(JournalFrames, FramesRoundTripThroughTheScanAndTheFile) {
  const std::string bytes = build_journal();
  ASSERT_GT(bytes.size(), kJournalMagicSize);
  EXPECT_EQ(bytes.substr(0, kJournalMagicSize), std::string(kJournalMagic));

  const JournalRecovery scanned = scan_journal(bytes);
  EXPECT_FALSE(scanned.torn);
  EXPECT_TRUE(scanned.error.empty());
  EXPECT_EQ(scanned.valid_bytes, bytes.size());
  EXPECT_EQ(scanned.total_bytes, bytes.size());
  EXPECT_EQ(scanned.payloads, sample_payloads());

  // The disk leg: recovery of the written bytes is the scan of them.
  const std::string path = tmp_path("roundtrip.journal");
  write_file(path, bytes);
  const JournalRecovery r = recover_journal(path, /*repair=*/false);
  EXPECT_TRUE(r.existed);
  EXPECT_FALSE(r.torn);
  EXPECT_TRUE(r.error.empty());
  EXPECT_EQ(r.valid_bytes, bytes.size());
  EXPECT_EQ(r.total_bytes, bytes.size());
  EXPECT_EQ(r.payloads, sample_payloads());

  // Re-opening an intact journal appends, never rewrites.
  {
    CampaignJournal again(path, /*journal_every=*/1);
    again.resume_marker();
  }
  EXPECT_EQ(read_file(path),
            bytes + journal_frame(R"({"record":"resume"})"));
  const JournalRecovery r2 = recover_journal(path, /*repair=*/false);
  ASSERT_EQ(r2.payloads.size(), sample_payloads().size() + 1);
  EXPECT_EQ(r2.payloads.back(), R"({"record":"resume"})");

  // A journal that never existed is a clean fresh start, not an error.
  const JournalRecovery none =
      recover_journal(tmp_path("never-written.journal"), /*repair=*/false);
  EXPECT_FALSE(none.existed);
  EXPECT_FALSE(none.torn);
  EXPECT_TRUE(none.payloads.empty());
  std::remove(path.c_str());
}

// A file that cannot be read is an error, not a fresh journal: a directory
// fails the read itself, and read_file reports it instead of returning
// empty content.
TEST(JournalFrames, UnreadableJournalIsAnErrorNotAFreshStart) {
  const std::string dir = ::testing::TempDir();
  std::string content = "untouched";
  EXPECT_FALSE(durable_io::read_file(dir, &content));
  EXPECT_EQ(content, "untouched");
  const JournalRecovery r = recover_journal(dir, /*repair=*/true);
  EXPECT_TRUE(r.existed);
  EXPECT_NE(r.error.find("cannot read journal"), std::string::npos)
      << r.error;
  EXPECT_TRUE(r.payloads.empty());
}

// A journal whose fsync fails is refused at construction: /dev/null takes
// the magic but cannot be synced, so the journal could not be durable.
TEST(JournalFrames, FailedFsyncThrowsNamingThePath) {
  try {
    CampaignJournal journal("/dev/null", 1);
    FAIL() << "a journal on /dev/null was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'/dev/null'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("fsync"), std::string::npos)
        << e.what();
  }
}

// The structural invariant resume depends on: EVERY byte prefix of a valid
// journal recovers — without throwing — to a frame prefix of the original
// payload sequence, with valid_bytes never past the cut and the recovered
// frame count monotone in the prefix length.
TEST(JournalFrames, EveryBytePrefixRecoversToAFramePrefix) {
  const std::string bytes = build_journal();
  const std::vector<std::string> full = sample_payloads();

  std::size_t prev_frames = 0;
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    const JournalRecovery r =
        scan_journal(std::string_view(bytes).substr(0, n));
    ASSERT_TRUE(r.error.empty()) << "cut at " << n << ": " << r.error;
    ASSERT_EQ(r.total_bytes, n);
    ASSERT_LE(r.valid_bytes, n) << "cut at " << n;
    ASSERT_EQ(r.torn, r.valid_bytes < n) << "cut at " << n;
    ASSERT_LE(r.payloads.size(), full.size()) << "cut at " << n;
    for (std::size_t i = 0; i < r.payloads.size(); ++i) {
      ASSERT_EQ(r.payloads[i], full[i]) << "cut at " << n << ", frame " << i;
    }
    ASSERT_GE(r.payloads.size(), prev_frames)
        << "recovered frames regressed at cut " << n;
    prev_frames = r.payloads.size();
  }
  EXPECT_EQ(prev_frames, full.size());
}

TEST(JournalFrames, TargetedGarblesQuarantineTheSuffix) {
  const std::string bytes = build_journal();
  const std::vector<std::string> full = sample_payloads();
  // Frame layout: magic, then frame i at offset(i) with 8-byte header.
  std::vector<std::size_t> frame_off;
  {
    std::size_t off = kJournalMagicSize;
    for (const std::string& p : full) {
      frame_off.push_back(off);
      off += 8 + p.size();
    }
  }
  const auto recover_garbled = [&](std::size_t pos, char flip) {
    std::string g = bytes;
    g[pos] = static_cast<char>(g[pos] ^ flip);
    return scan_journal(g);
  };

  // A flipped payload byte in frame 2 fails its CRC: frames 0-1 survive,
  // everything from frame 2 on is quarantined (truncation scan).
  {
    const JournalRecovery r = recover_garbled(frame_off[2] + 8 + 3, 0x20);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.valid_bytes, frame_off[2]);
    ASSERT_EQ(r.payloads.size(), 2u);
    EXPECT_EQ(r.payloads[1], full[1]);
  }
  // A flipped CRC byte: same outcome (the payload itself is intact but
  // cannot be trusted).
  {
    const JournalRecovery r = recover_garbled(frame_off[1] + 4, 0x01);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.valid_bytes, frame_off[1]);
    EXPECT_EQ(r.payloads.size(), 1u);
  }
  // A garbled length that claims more bytes than the file holds.
  {
    const JournalRecovery r = recover_garbled(frame_off[3] + 3, 0x7F);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.valid_bytes, frame_off[3]);
    EXPECT_EQ(r.payloads.size(), 3u);
  }
  // A damaged magic voids every frame: nothing can be trusted.
  {
    const JournalRecovery r = recover_garbled(5, 0x10);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.valid_bytes, 0u);
    EXPECT_TRUE(r.payloads.empty());
  }
}

// A journal written under a retired format version (collie-journal-v1,
// whose probe records carry a Box-Muller spare in their RNG state, or
// collie-journal-v2, whose record vocabulary this build no longer parses)
// is refused before any frame is read, with an error naming both versions —
// never resumed into a mid-parse failure, never quarantined as torn.
TEST(JournalFrames, PreviousFormatVersionIsRejectedUpFront) {
  const std::string built = build_journal();
  ASSERT_EQ(built.substr(0, kJournalMagicSize), "collie-journal-v3\n");
  const std::string path = tmp_path("retired.journal");
  for (const char version : {'1', '2'}) {
    std::string bytes = built;
    bytes[16] = version;
    const JournalRecovery scanned = scan_journal(bytes);
    EXPECT_NE(scanned.error.find(std::string("collie-journal-v") + version),
              std::string::npos)
        << scanned.error;
    EXPECT_NE(scanned.error.find("collie-journal-v3"), std::string::npos)
        << scanned.error;
    EXPECT_TRUE(scanned.payloads.empty());
    EXPECT_FALSE(scanned.torn);

    // The disk leg: repair leaves the file alone.
    write_file(path, bytes);
    const JournalRecovery r = recover_journal(path, /*repair=*/true);
    EXPECT_TRUE(r.existed);
    EXPECT_EQ(r.error, scanned.error);
    EXPECT_TRUE(r.payloads.empty());
    EXPECT_FALSE(r.torn);
    // Untouched: no truncation, no quarantine file.
    EXPECT_EQ(read_file(path), bytes);
    std::ifstream torn(path + ".torn");
    EXPECT_FALSE(torn.good());
  }

  // A crash inside this build's own magic is still a torn journal.
  for (std::size_t n = 1; n < kJournalMagicSize; ++n) {
    const JournalRecovery cut = scan_journal(std::string(kJournalMagic, n));
    EXPECT_TRUE(cut.error.empty()) << "cut at " << n << ": " << cut.error;
    EXPECT_TRUE(cut.torn) << "cut at " << n;
  }
  std::remove(path.c_str());
}

TEST(JournalFrames, RepairQuarantinesTornSuffixAndAcceptsAppends) {
  const std::string path = tmp_path("repair.journal");
  const std::string bytes = build_journal();
  // Tear mid-way through the last frame.
  const std::size_t cut = bytes.size() - 3;
  write_file(path, bytes.substr(0, cut));

  const JournalRecovery r = recover_journal(path, /*repair=*/true);
  EXPECT_TRUE(r.torn);
  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.payloads.size(), sample_payloads().size() - 1);
  // The torn suffix is quarantined byte-for-byte, never silently dropped...
  EXPECT_EQ(r.torn_path, path + ".torn");
  EXPECT_EQ(read_file(r.torn_path), bytes.substr(r.valid_bytes, cut - r.valid_bytes));
  // ...and the journal itself is truncated to its valid prefix, ready for
  // appending (what a resumed campaign does).
  EXPECT_EQ(read_file(path).size(), r.valid_bytes);
  {
    CampaignJournal journal(path, /*journal_every=*/1);
    journal.resume_marker();
  }
  const JournalRecovery r2 = recover_journal(path, /*repair=*/false);
  EXPECT_FALSE(r2.torn);
  ASSERT_EQ(r2.payloads.size(), r.payloads.size() + 1);
  EXPECT_EQ(r2.payloads.back(), R"({"record":"resume"})");
  std::remove(path.c_str());
  std::remove((path + ".torn").c_str());
}

TEST(JournalFrames, RandomByteFlipsNeverMisbehave) {
  const std::string bytes = build_journal();
  const std::vector<std::string> full = sample_payloads();
  Rng rng(53);
  for (int trial = 0; trial < 200; ++trial) {
    std::string g = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<i64>(bytes.size()) - 1));
    const auto flip = static_cast<char>(rng.uniform_int(1, 255));
    g[pos] = static_cast<char>(g[pos] ^ flip);
    // Recovery must never throw and never hallucinate: every recovered
    // frame is byte-identical to the original sequence's — a flip either
    // lands past the scan's stopping point or truncates it, but cannot
    // produce a frame that was never written (CRC collisions aside, and a
    // single-byte flip cannot collide CRC-32).
    const JournalRecovery r = scan_journal(g);
    ASSERT_TRUE(r.error.empty()) << "trial " << trial;
    ASSERT_LE(r.payloads.size(), full.size()) << "trial " << trial;
    for (std::size_t i = 0; i < r.payloads.size(); ++i) {
      ASSERT_EQ(r.payloads[i], full[i]) << "trial " << trial;
    }
  }
}

// ---- record vocabulary / parse_journal --------------------------------------

// A realistic record stream written through CampaignJournal, then parsed
// back: one completed cell (its probes kept as its recorded trajectory,
// its streamed extractions superseded by its cell_done), one partial cell
// (probes + streamed extractions survive as the splice prefix), plus a
// session boundary.
TEST(CampaignJournalRecords, ParseJournalReconstructsResumableState) {
  const std::string path = tmp_path("records.journal");
  const core::SearchSpace space(sim::subsystem('B'));
  Rng rng(61);

  Schedule sched;
  sched.workers = 1;
  sched.queues = {{0, 1}};
  const std::string sched_json = schedule_to_json(
      sched, {"B/Diag#0", "B/Diag#1"}, {3600.0, 3600.0});

  std::vector<TraceProbe> done_probes(3);
  std::vector<TraceProbe> partial_probes(2);
  core::Mfs partial_mfs;
  {
    CampaignJournal journal(path, /*journal_every=*/1);
    journal.begin("cell", "sa", /*seed=*/17, /*workers=*/1, "sim",
                  sched_json);
    for (TraceProbe& p : done_probes) {
      p.workload = space.random_point(rng);
      p.measurement.stable = true;
      p.rng_after = rng.state();
      journal.probe("B/Diag#0", p.workload, p.measurement, p.rng_after);
    }
    // The completed cell: its cell_done document carries the result.
    CellResult done;
    done.cell.subsystem = 'B';
    done.worker = 0;
    done.result.experiments = 3;
    done.result.elapsed_seconds = 120.0;
    partial_mfs.witness = space.random_point(rng);
    PoolStats delta;
    delta.entries = 1;
    delta.hits = 2;
    journal.cell_done(done, {PoolEntry{partial_mfs, 0}}, delta, /*lease=*/1);

    // The partial cell: probes and streamed extractions, no cell_done.
    for (TraceProbe& p : partial_probes) {
      p.workload = space.random_point(rng);
      p.rng_after = rng.state();
      journal.probe("B/Diag#1", p.workload, p.measurement, p.rng_after);
    }
    core::Mfs m0 = partial_mfs;
    m0.index = 0;
    core::Mfs m1 = partial_mfs;
    m1.index = 1;
    journal.mfs_batch("B/Diag#1", "B/Diag#1", PoolEntry{m0, 0});
    journal.mfs_batch("B/Diag#1", "B/Diag#1", PoolEntry{m0, 0});  // replayed dup
    journal.mfs_batch("B/Diag#1", "B/Diag#1", PoolEntry{m1, 0});
    journal.resume_marker();
    EXPECT_EQ(journal.probes(), 5);
    EXPECT_EQ(journal.bytes(), read_file(path).size());
  }

  const JournalRecovery rec = recover_journal(path, /*repair=*/true);
  ASSERT_FALSE(rec.torn);
  const JournalResume r = parse_journal(rec.payloads);
  EXPECT_TRUE(r.has_begin);
  EXPECT_EQ(r.share, "cell");
  EXPECT_EQ(r.strategy, "sa");
  EXPECT_EQ(r.backend, "sim");
  EXPECT_EQ(r.seed, 17u);
  EXPECT_EQ(r.workers, 1);
  EXPECT_EQ(r.schedule.workers, 1);
  ASSERT_EQ(r.schedule.queues.size(), 1u);
  EXPECT_EQ(r.schedule.queues[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(r.probes, 5);
  EXPECT_EQ(r.sessions, 2);

  // The completed cell is restored verbatim.
  ASSERT_EQ(r.completion_order, std::vector<std::string>{"B/Diag#0"});
  const RestoredCell& rc = r.completed.at("B/Diag#0");
  EXPECT_EQ(rc.result.result.experiments, 3);
  EXPECT_DOUBLE_EQ(rc.result.result.elapsed_seconds, 120.0);
  ASSERT_EQ(rc.inserts.size(), 1u);
  EXPECT_EQ(rc.delta.hits, 2);

  // Both cells' probes are recorded bit-exact; the partial cell's are its
  // splice prefix.
  ASSERT_EQ(r.recorded.size(), 2u);
  for (const auto& [context, want] :
       {std::pair{"B/Diag#0", &done_probes},
        std::pair{"B/Diag#1", &partial_probes}}) {
    const std::vector<TraceProbe>& got = r.recorded.at(context);
    ASSERT_EQ(got.size(), want->size()) << context;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].workload, (*want)[i].workload) << context;
      EXPECT_EQ(got[i].rng_after, (*want)[i].rng_after) << context;
    }
  }
  ASSERT_EQ(r.partial_inserts.count("B/Diag#1"), 1u);
  EXPECT_EQ(r.partial_inserts.at("B/Diag#1").entries.size(), 3u);

  // Checkpoint salvage: the completed cell's inserts land under its scope,
  // the partial cell's streamed extractions dedup by MFS index (the
  // resumed-session double-journal case) and count as knowledge only.
  const CampaignCheckpoint ckpt = journal_to_checkpoint(r);
  EXPECT_EQ(ckpt.share, "cell");
  EXPECT_EQ(ckpt.completed_cells, std::vector<std::string>{"B/Diag#0"});
  ASSERT_EQ(ckpt.scopes.count("B/Diag#0"), 1u);
  EXPECT_EQ(ckpt.scopes.at("B/Diag#0").size(), 1u);
  ASSERT_EQ(ckpt.scopes.count("B/Diag#1"), 1u);
  EXPECT_EQ(ckpt.scopes.at("B/Diag#1").size(), 2u);  // m0 deduped

  std::remove(path.c_str());
}

TEST(CampaignJournalRecords, ParseRejectsUnknownShapesLoudly) {
  // An unknown journal-native record (a journal from a newer build).
  EXPECT_THROW(parse_journal({R"({"record":"hologram"})"}), JsonError);
  // Record kinds of collie-journal-v2 that v3 no longer has: a search
  // driver's progress snapshot and a fleet lease event.
  EXPECT_THROW(
      parse_journal({R"({"record":"driver_state","context":"B/Diag#0",)"
                     R"("state":{"phase":"sa","experiments":3}})"}),
      JsonError);
  EXPECT_THROW(parse_journal({R"({"record":"event","what":"lease",)"
                              R"("cell":"B/Diag#0","worker":0,"lease":1})"}),
               JsonError);
  // A second begin record (only resume markers may follow a begin).
  const std::string begin =
      R"({"record":"begin","share":"cell","strategy":"sa","seed":1,)"
      R"("workers":1,"backend":"sim","schedule":)"
      R"("{\"workers\":1,\"queues\":[[]],\"labels\":[[]],\"budgets\":[[]]}"})";
  ASSERT_NO_THROW(parse_journal({begin}));
  EXPECT_THROW(parse_journal({begin, begin}), JsonError);
  // A fleet message that is not a cell_done.
  EXPECT_THROW(
      parse_journal({R"({"type":"ack","sender":0,"seq":1,"lease":1})"}),
      JsonError);
  // Not JSON at all.
  EXPECT_THROW(parse_journal({"not json"}), JsonError);
}

}  // namespace
}  // namespace collie::orchestrator
