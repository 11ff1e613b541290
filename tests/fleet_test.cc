// Fleet protocol tests: wire-format round trips and fuzzing (same harness
// as tests/persistence_test.cc), LoopbackTransport semantics, and the
// acceptance criteria of the distributed campaign — a fault-free loopback
// fleet is byte-identical to the in-process campaign under cell scopes, and
// a killed worker's cell is re-queued without double-counting any probe.
// The TSan CI job runs this binary to pin the protocol data-race-free.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/json_reader.h"
#include "fleet/fleet.h"
#include "fleet/messages.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/checkpoint.h"
#include "orchestrator/journal.h"
#include "sim/subsystem.h"
#include "workload/engine.h"

namespace collie::fleet {
namespace {

using core::JsonError;
using core::JsonValue;
using orchestrator::Campaign;
using orchestrator::CampaignConfig;
using orchestrator::CampaignResult;
using orchestrator::CellResult;
using orchestrator::PoolEntry;
using orchestrator::ShareScope;
using std::chrono::milliseconds;

CampaignConfig small_config() {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag};
  config.seeds_per_cell = 2;  // 4 cells
  config.budget.seconds = 0.05 * 3600.0;
  config.campaign_seed = 17;
  config.share = ShareScope::kCell;
  config.workers = 2;
  return config;
}

// A finished small campaign: source of realistic CellResults (with found
// anomalies and MFS entries) for the wire-format tests.
const CampaignResult& reference_result() {
  static const CampaignResult result = [] {
    return Campaign(small_config()).run();
  }();
  return result;
}

// The CellResult with the most payload (found anomalies) — the most
// interesting document to round-trip and fuzz.
const CellResult& richest_cell() {
  const CampaignResult& result = reference_result();
  const CellResult* best = &result.cells.front();
  for (const CellResult& cr : result.cells) {
    if (cr.result.found.size() > best->result.found.size()) best = &cr;
  }
  return *best;
}

std::vector<PoolEntry> sample_entries() {
  std::vector<PoolEntry> entries;
  for (const auto& [scope, mfses] : reference_result().pool_scopes) {
    for (const core::Mfs& mfs : mfses) {
      entries.push_back(PoolEntry{mfs, 1});
    }
  }
  return entries;
}

Message sample_lease() {
  Message m;
  m.type = MsgType::kLeaseCell;
  m.sender = kCoordinatorId;
  m.seq = 3;
  m.lease = 7;
  m.cell = richest_cell().cell;
  m.start_seconds = 123.5;
  m.scope = m.cell.scope(ShareScope::kCell);
  m.preload = sample_entries();
  return m;
}

Message sample_done() {
  Message m;
  m.type = MsgType::kCellDone;
  m.sender = 2;
  m.seq = 9;
  m.lease = 7;
  m.result = richest_cell();
  m.inserts = sample_entries();
  m.pool_delta.entries = 3;
  m.pool_delta.hits = 5;
  m.pool_delta.cross_worker_hits = 1;
  m.pool_delta.warm_hits = 2;
  m.pool_delta.duplicate_inserts = 1;
  return m;
}

TEST(FleetMessages, EveryTypeRoundTripsByteIdentically) {
  std::vector<Message> messages;
  messages.push_back(sample_lease());
  {
    Message shutdown;
    shutdown.type = MsgType::kLeaseCell;
    shutdown.shutdown = true;
    messages.push_back(shutdown);
  }
  messages.push_back(sample_done());
  {
    Message batch;
    batch.type = MsgType::kMfsBatch;
    batch.sender = 1;
    batch.seq = 4;
    batch.lease = 7;
    batch.first_ordinal = 2;
    batch.inserts = sample_entries();
    messages.push_back(batch);
  }
  {
    Message hb;
    hb.type = MsgType::kHeartbeat;
    hb.sender = 0;
    hb.lease = 7;
    hb.busy = true;
    hb.probes = 41;
    messages.push_back(hb);
  }
  {
    Message ack;
    ack.type = MsgType::kAck;
    ack.lease = 7;
    messages.push_back(ack);
  }
  for (const Message& m : messages) {
    const std::string doc = m.to_json();
    const Message back = Message::from_json(doc);
    EXPECT_EQ(back.to_json(), doc) << doc;
  }
}

TEST(FleetMessages, RejectsTruncationAtEveryPrefix) {
  const std::string doc = sample_done().to_json();
  ASSERT_NO_THROW(Message::from_json(doc));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_THROW(Message::from_json(doc.substr(0, n)), JsonError)
        << "prefix of length " << n << " parsed";
  }
}

TEST(FleetMessages, RejectsTargetedGarbles) {
  const std::vector<std::string> bad = {
      "",
      "{}",
      "[]",
      "42",
      R"({"type":"unknown","sender":0,"seq":1,"lease":1})",
      // Negative seq / lease.
      R"({"type":"ack","sender":0,"seq":-1,"lease":1})",
      R"({"type":"ack","sender":0,"seq":1,"lease":-1})",
      // Lease-bound types demand a non-zero lease.
      R"({"type":"ack","sender":0,"seq":1,"lease":0})",
      R"({"type":"cell_done","sender":0,"seq":1,"lease":0})",
      R"({"type":"mfs_batch","sender":0,"seq":1,"lease":0,)"
      R"("first_ordinal":0,"inserts":[]})",
      // Missing per-type fields.
      R"({"type":"mfs_batch","sender":0,"seq":1,"lease":1})",
      R"({"type":"cell_done","sender":0,"seq":1,"lease":1})",
      R"({"type":"heartbeat","sender":0,"seq":1,"lease":0})",
      R"({"type":"lease_cell","sender":-1,"seq":1,"lease":1})",
      // Negative first_ordinal.
      R"({"type":"mfs_batch","sender":0,"seq":1,"lease":1,)"
      R"("first_ordinal":-2,"inserts":[]})",
  };
  for (const std::string& doc : bad) {
    EXPECT_THROW(Message::from_json(doc), JsonError) << "accepted: " << doc;
  }
  // A garbled enum inside an otherwise valid lease: strict error.
  std::string lease = sample_lease().to_json();
  const std::size_t pos = lease.find("\"mode\":\"");
  ASSERT_NE(pos, std::string::npos);
  lease[pos + 8] = '?';
  EXPECT_THROW(Message::from_json(lease), JsonError);
}

TEST(FleetMessages, RandomByteFlipsNeverMisbehave) {
  // Flip random bytes in real payloads; from_json must either throw
  // JsonError or parse — anything else (crash, UB) is what the sanitizer
  // CI jobs exist to catch.
  const std::vector<std::string> docs = {sample_lease().to_json(),
                                         sample_done().to_json()};
  Rng rng(7);
  for (const std::string& doc : docs) {
    for (int trial = 0; trial < 300; ++trial) {
      std::string garbled = doc;
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<i64>(doc.size()) - 1));
      garbled[pos] = static_cast<char>(rng.uniform_int(1, 127));
      try {
        (void)Message::from_json(garbled);
      } catch (const JsonError&) {
        // expected for most mutations
      }
    }
  }
}

TEST(LoopbackTransport, FifoPerPairAndTimeout) {
  LoopbackTransport t(2);
  EXPECT_TRUE(t.send(0, kCoordinatorId, "a"));
  EXPECT_TRUE(t.send(0, kCoordinatorId, "b"));
  int from = 99;
  std::string payload;
  ASSERT_EQ(t.recv(kCoordinatorId, &from, &payload, milliseconds(100)),
            RecvStatus::kMessage);
  EXPECT_EQ(from, 0);
  EXPECT_EQ(payload, "a");
  ASSERT_EQ(t.recv(kCoordinatorId, &from, &payload, milliseconds(100)),
            RecvStatus::kMessage);
  EXPECT_EQ(payload, "b");
  EXPECT_EQ(t.recv(kCoordinatorId, &from, &payload, milliseconds(10)),
            RecvStatus::kTimeout);
  t.close(kCoordinatorId);
  EXPECT_EQ(t.recv(kCoordinatorId, &from, &payload, milliseconds(10)),
            RecvStatus::kClosed);
  EXPECT_FALSE(t.send(0, kCoordinatorId, "c"));
}

TEST(LoopbackTransport, FaultRulesDropDuplicateDelay) {
  LoopbackTransport t(1);
  FaultRule drop;
  drop.action = FaultRule::Action::kDrop;
  drop.type = "heartbeat";
  drop.times = 1;
  t.add_fault(drop);
  FaultRule dup;
  dup.action = FaultRule::Action::kDuplicate;
  dup.type = "ack";
  t.add_fault(dup);

  EXPECT_FALSE(t.send(0, kCoordinatorId, R"({"type":"heartbeat"})"));
  EXPECT_TRUE(t.send(0, kCoordinatorId, R"({"type":"heartbeat"})"));
  EXPECT_TRUE(t.send(kCoordinatorId, 0, R"({"type":"ack"})"));

  int from = 0;
  std::string payload;
  ASSERT_EQ(t.recv(kCoordinatorId, &from, &payload, milliseconds(100)),
            RecvStatus::kMessage);  // the second heartbeat (first dropped)
  EXPECT_EQ(t.recv(kCoordinatorId, &from, &payload, milliseconds(10)),
            RecvStatus::kTimeout);
  // The ack was duplicated: two copies for worker 0.
  ASSERT_EQ(t.recv(0, &from, &payload, milliseconds(100)),
            RecvStatus::kMessage);
  ASSERT_EQ(t.recv(0, &from, &payload, milliseconds(100)),
            RecvStatus::kMessage);
  EXPECT_EQ(t.dropped(), 1);
  EXPECT_EQ(t.duplicated(), 1);

  // A delayed message is passed over in favour of later ready ones.
  LoopbackTransport t2(1);
  FaultRule delay;
  delay.action = FaultRule::Action::kDelay;
  delay.type = "first";
  delay.delay = milliseconds(60);
  t2.add_fault(delay);
  EXPECT_TRUE(t2.send(0, kCoordinatorId, R"({"type":"first"})"));
  EXPECT_TRUE(t2.send(0, kCoordinatorId, R"({"type":"second"})"));
  ASSERT_EQ(t2.recv(kCoordinatorId, &from, &payload, milliseconds(500)),
            RecvStatus::kMessage);
  EXPECT_NE(payload.find("second"), std::string::npos);
  ASSERT_EQ(t2.recv(kCoordinatorId, &from, &payload, milliseconds(500)),
            RecvStatus::kMessage);
  EXPECT_NE(payload.find("first"), std::string::npos);
  EXPECT_EQ(t2.delayed(), 1);
}

// Generous protocol timers for functional fleet tests: TSan slows
// execution 5-20x, and a heartbeat timeout tuned for real time would
// declare healthy workers dead under the sanitizer.
FleetRunOptions patient_options() {
  FleetRunOptions opts;
  opts.coordinator.heartbeat_interval = milliseconds(25);
  opts.coordinator.heartbeat_timeout = milliseconds(2000);
  opts.coordinator.stall_timeout = milliseconds(60000);
  return opts;
}

// ---- Acceptance: fault-free fleet == in-process campaign, byte for byte.

TEST(Fleet, FaultFreeFleetMatchesInProcessCampaignAtAnyWorkerCount) {
  for (const int workers : {1, 2, 4}) {
    CampaignConfig config = small_config();
    config.workers = workers;
    const CampaignResult reference = Campaign(config).run();
    const FleetRunResult fleet =
        run_loopback_fleet(config, patient_options());

    // Report, checkpoint, and schedule documents all byte-identical.
    EXPECT_EQ(orchestrator::build_report(fleet.campaign).to_json(),
              orchestrator::build_report(reference).to_json())
        << workers << " workers";
    EXPECT_EQ(orchestrator::make_checkpoint(fleet.campaign).to_json(),
              orchestrator::make_checkpoint(reference).to_json())
        << workers << " workers";
    EXPECT_EQ(fleet.stats.requeues, 0);
    EXPECT_EQ(fleet.stats.heartbeat_misses, 0);
    EXPECT_EQ(fleet.stats.stolen, 0);
    EXPECT_EQ(fleet.stats.leases,
              static_cast<i64>(reference.cells.size()));
  }
}

// Dropped, duplicated, and delayed messages must not change the report:
// CellDone is retried until Acked and accepted exactly once, MfsBatch
// ordinals dedup and reorder, the CellDone insert list reconciles dropped
// batches.
TEST(Fleet, MessageFaultsDoNotChangeTheReport) {
  CampaignConfig config = small_config();
  const CampaignResult reference = Campaign(config).run();

  FleetRunOptions opts = patient_options();
  {
    FaultRule drop_batch;  // first streamed extraction vanishes
    drop_batch.action = FaultRule::Action::kDrop;
    drop_batch.type = "mfs_batch";
    drop_batch.times = 1;
    opts.faults.push_back(drop_batch);
    FaultRule drop_ack;  // worker must retransmit its CellDone
    drop_ack.action = FaultRule::Action::kDrop;
    drop_ack.type = "ack";
    drop_ack.times = 1;
    opts.faults.push_back(drop_ack);
    FaultRule dup_done;  // every CellDone arrives twice
    dup_done.action = FaultRule::Action::kDuplicate;
    dup_done.type = "cell_done";
    opts.faults.push_back(dup_done);
    FaultRule delay_done;  // and one arrives late, after its duplicate
    delay_done.action = FaultRule::Action::kDelay;
    delay_done.type = "cell_done";
    delay_done.times = 1;
    delay_done.delay = milliseconds(40);
    opts.faults.push_back(delay_done);
  }
  const FleetRunResult fleet = run_loopback_fleet(config, opts);

  EXPECT_EQ(orchestrator::build_report(fleet.campaign).to_json(),
            orchestrator::build_report(reference).to_json());
  EXPECT_GT(fleet.stats.duplicates, 0);  // the duplicate path actually ran
  EXPECT_GT(fleet.dropped, 0);
  EXPECT_GT(fleet.duplicated, 0);
}

// ---- Acceptance: kill a worker mid-cell; zero double-counted probes.

TEST(Fleet, KilledWorkerCellIsRequeuedWithoutDoubleCounting) {
  CampaignConfig config = small_config();
  const CampaignResult reference = Campaign(config).run();

  FleetRunOptions opts = patient_options();
  // Death detection must be meaningfully faster than the stall guard but
  // still TSan-tolerant; the killed worker stops heartbeating entirely, so
  // this is latency tuning, not a correctness knob.
  opts.coordinator.heartbeat_timeout = milliseconds(800);
  opts.kill_worker = 0;
  opts.kill_at_cell = reference.cells.front().cell.label();
  const FleetRunResult fleet = run_loopback_fleet(config, opts);

  EXPECT_GE(fleet.stats.heartbeat_misses, 1);
  EXPECT_GE(fleet.stats.requeues, 1);

  // Every planned cell has exactly one accepted result, none failed, and
  // plan order is preserved.
  ASSERT_EQ(fleet.campaign.cells.size(), reference.cells.size());
  for (std::size_t i = 0; i < fleet.campaign.cells.size(); ++i) {
    const CellResult& cr = fleet.campaign.cells[i];
    EXPECT_EQ(cr.cell.label(), reference.cells[i].cell.label());
    EXPECT_FALSE(cr.failed()) << cr.cell.label() << ": " << cr.error;
    EXPECT_FALSE(cr.skipped);
    EXPECT_GT(cr.result.experiments, 0) << cr.cell.label();
  }

  // Zero double-counting: the report's totals are the sum of exactly one
  // accepted result per cell — re-leasing must not inflate them.  Cells
  // the dead worker never touched are bitwise the reference's.
  i64 total = 0;
  for (const CellResult& cr : fleet.campaign.cells) {
    total += cr.result.experiments;
  }
  EXPECT_EQ(orchestrator::build_report(fleet.campaign).total_experiments,
            static_cast<int>(total));
  for (std::size_t i = 1; i < fleet.campaign.cells.size(); ++i) {
    // Cell 0 re-ran with the dead worker's partial extractions preloaded
    // (so its trajectory may differ); under cell scopes every other cell
    // is untouched by the fault and must match the reference exactly.
    EXPECT_EQ(fleet.campaign.cells[i].result.experiments,
              reference.cells[i].result.experiments)
        << fleet.campaign.cells[i].cell.label();
    EXPECT_EQ(fleet.campaign.cells[i].result.elapsed_seconds,
              reference.cells[i].result.elapsed_seconds)
        << fleet.campaign.cells[i].cell.label();
  }
}

// With every worker dead and nobody reconnecting, the coordinator must
// fail loudly instead of hanging the harness.
TEST(Fleet, StallFailsLoudlyWhenEveryWorkerIsDead) {
  CampaignConfig config = small_config();
  config.subsystems = {'B'};
  config.seeds_per_cell = 1;
  config.workers = 1;

  FleetRunOptions opts;
  opts.coordinator.heartbeat_interval = milliseconds(25);
  opts.coordinator.heartbeat_timeout = milliseconds(300);
  opts.coordinator.stall_timeout = milliseconds(1500);
  opts.kill_worker = 0;
  opts.kill_at_cell = "B/Diag#0";
  EXPECT_THROW(run_loopback_fleet(config, opts), std::runtime_error);
}

// An idle worker steals queued cells from a slow one: the wall-clock
// imbalance the virtual-time schedule cannot see.
TEST(Fleet, IdleWorkerStealsFromSlowWorkerQueue) {
  CampaignConfig config = small_config();  // 4 cells, 2 workers

  FleetRunOptions opts = patient_options();
  opts.coordinator.steal_after = milliseconds(50);
  opts.slow_worker = 0;
  opts.slow_probe_us = 3000;
  const FleetRunResult fleet = run_loopback_fleet(config, opts);

  EXPECT_GE(fleet.stats.stolen, 1);
  for (const CellResult& cr : fleet.campaign.cells) {
    EXPECT_FALSE(cr.failed());
    EXPECT_FALSE(cr.skipped);
    EXPECT_GT(cr.result.experiments, 0);
  }
}

// ---- Acceptance: coordinator journal + resume, zero double-counting.

// The coordinator streams lease events, applied extractions, and reconciled
// CellDones through the campaign journal.  Cutting that journal at a frame
// boundary and resuming restores every journaled cell verbatim, leases only
// the remainder, and reports byte-identically — a journaled completed cell
// is never re-leased and its probes are never re-spent.
TEST(Fleet, CoordinatorJournalResumesByteIdentically) {
  CampaignConfig config = small_config();
  const std::string golden =
      orchestrator::build_report(Campaign(config).run()).to_json();

  const std::string path =
      ::testing::TempDir() + "collie_fleet_test.journal";
  std::remove(path.c_str());
  {
    orchestrator::CampaignJournal journal(path, /*journal_every=*/4);
    CampaignConfig jcfg = config;
    jcfg.journal = &journal;
    const FleetRunResult fleet = run_loopback_fleet(jcfg, patient_options());
    // Journaling the coordinator never perturbs the fleet's report.
    EXPECT_EQ(orchestrator::build_report(fleet.campaign).to_json(), golden);
    // Fault-free: one lease per cell.
    EXPECT_EQ(fleet.stats.leases, 4);
  }
  const orchestrator::JournalRecovery rec =
      orchestrator::recover_journal(path, /*repair=*/false);
  ASSERT_FALSE(rec.torn);
  const orchestrator::JournalResume complete =
      orchestrator::parse_journal(rec.payloads);
  EXPECT_EQ(complete.completed.size(), 4u);

  std::size_t first_done = 0;
  for (std::size_t i = 0; i < rec.payloads.size(); ++i) {
    if (rec.payloads[i].find("\"type\":\"cell_done\"") != std::string::npos) {
      first_done = i;
      break;
    }
  }
  ASSERT_GT(first_done, 0u);

  const std::string cut_path = path + ".cut";
  for (const std::size_t k : {first_done + 1, rec.payloads.size()}) {
    std::remove(cut_path.c_str());
    {
      orchestrator::JournalWriter writer(cut_path);
      for (std::size_t i = 0; i < k; ++i) writer.append(rec.payloads[i]);
      writer.sync();
    }
    const orchestrator::JournalResume resume = orchestrator::parse_journal(
        orchestrator::recover_journal(cut_path, /*repair=*/true).payloads);
    ASSERT_TRUE(resume.has_begin);
    const std::size_t restored = resume.completed.size();

    orchestrator::CampaignJournal journal(cut_path, /*journal_every=*/4);
    CampaignConfig rcfg = config;
    rcfg.journal = &journal;
    rcfg.resume = &resume;
    rcfg.replay = resume.schedule;
    const FleetRunResult fleet = run_loopback_fleet(rcfg, patient_options());
    EXPECT_EQ(orchestrator::build_report(fleet.campaign).to_json(), golden)
        << "cut " << k;
    // Restored cells are never re-leased: only the remainder goes out.
    EXPECT_EQ(fleet.stats.leases, static_cast<i64>(4 - restored))
        << "cut " << k;
    EXPECT_EQ(fleet.stats.requeues, 0) << "cut " << k;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

}  // namespace
}  // namespace collie::fleet
