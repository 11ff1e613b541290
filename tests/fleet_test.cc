// Fleet protocol tests: wire-format round trips and fuzzing (same harness
// as tests/persistence_test.cc), LoopbackTransport semantics, and the
// acceptance criteria of the distributed campaign — under cell scopes a
// loopback fleet's report and checkpoint are byte-identical to the
// in-process campaign's at 1, 2 and 4 workers with no fault, a killed
// executor, lost/duplicated/delayed messages, a zombie executor and a slow
// executor.  The TSan CI job runs this binary to pin the protocol
// data-race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
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
#include "workload/backend_sim.h"
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
  m.worker = 3;
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
      // Extractions travel only inside cell_done.
      R"({"type":"mfs_batch","sender":0,"seq":1,"lease":1,)"
      R"("first_ordinal":0,"inserts":[]})",
      // Negative seq / lease.
      R"({"type":"ack","sender":0,"seq":-1,"lease":1})",
      R"({"type":"ack","sender":0,"seq":1,"lease":-1})",
      // A sender past the int range must not wrap into another endpoint.
      R"({"type":"ack","sender":4294967295,"seq":1,"lease":1})",
      // Lease-bound types demand a non-zero lease.
      R"({"type":"ack","sender":0,"seq":1,"lease":0})",
      R"({"type":"cell_done","sender":0,"seq":1,"lease":0})",
      // Missing per-type fields.
      R"({"type":"cell_done","sender":0,"seq":1,"lease":1})",
      R"({"type":"heartbeat","sender":0,"seq":1,"lease":0})",
      R"({"type":"lease_cell","sender":-1,"seq":1,"lease":1})",
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

  // Every int field rejects a value outside the int range instead of
  // wrapping it: an insert's origin 4294967294 would otherwise resume as the
  // warm-start origin (-2), a lease's worker as another logical worker.
  // `doc` with the first integer member `key` set to `value`.
  const auto with_field = [](std::string doc, const std::string& key,
                             const std::string& value) {
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = doc.find(tag);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return doc;
    const std::size_t from = at + tag.size();
    const std::size_t to = doc.find_first_not_of("-0123456789", from);
    return doc.replace(from, to - from, value);
  };
  const std::string lease_doc = sample_lease().to_json();
  const std::string done_doc = sample_done().to_json();
  const std::vector<std::string> out_of_range = {
      with_field(lease_doc, "worker", "4294967299"),
      with_field(lease_doc, "worker", "-1"),
      with_field(lease_doc, "origin", "4294967294"),
      with_field(lease_doc, "seed_ordinal", "4294967296"),
      with_field(done_doc, "worker", "-4294967296"),
      with_field(done_doc, "experiments", "2147483648"),
      with_field(done_doc, "mfs_skips", "-2147483649"),
      with_field(done_doc, "experiment_index", "3000000000"),
  };
  for (const std::string& doc : out_of_range) {
    EXPECT_THROW(Message::from_json(doc), JsonError) << "accepted: " << doc;
  }
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
// declare healthy executors dead under the sanitizer.  (A false death only
// moves a cell to another executor; the fault-free test's zero-requeue
// assertion is what needs the margin.)
FleetRunOptions patient_options() {
  FleetRunOptions opts;
  opts.coordinator.heartbeat_interval = milliseconds(25);
  opts.coordinator.heartbeat_timeout = milliseconds(2000);
  opts.coordinator.stall_timeout = milliseconds(60000);
  return opts;
}

// Timers for the death tests: a killed or zombie executor is declared dead
// after 400 ms of silence.
FleetRunOptions prompt_options() {
  FleetRunOptions opts = patient_options();
  opts.coordinator.heartbeat_timeout = milliseconds(400);
  return opts;
}

// The fleet ≡ in-process pin: report, checkpoint and schedule documents
// byte-identical.
void expect_same_campaign(const FleetRunResult& fleet,
                          const CampaignResult& reference,
                          const std::string& what) {
  EXPECT_EQ(orchestrator::build_report(fleet.campaign).to_json(),
            orchestrator::build_report(reference).to_json())
      << what;
  EXPECT_EQ(orchestrator::make_checkpoint(fleet.campaign).to_json(),
            orchestrator::make_checkpoint(reference).to_json())
      << what;
}

// The simulator behind a wall-clock sleep on the probes of one cell: each
// of the first `naps` probes of the cell labelled `label`, counted across
// every run of it, sleeps `nap` before measuring.  Kind kMock (a decorator
// is never the SimBackend the engine devirtualizes to) with the simulator's
// substrate, so its reports match an undecorated campaign's.
class SleepingBackendFactory final : public workload::BackendFactory {
 public:
  SleepingBackendFactory(std::string label, milliseconds nap, int naps)
      : label_(std::move(label)), nap_(nap), naps_left_(naps) {}

  workload::BackendKind kind() const override {
    return workload::BackendKind::kMock;
  }
  const std::string& substrate() const override { return sim_.substrate(); }
  std::unique_ptr<workload::Backend> create(
      const sim::Subsystem& sys, const workload::EngineOptions& opts,
      const std::string& context) override {
    return std::make_unique<Backend>(
        sim_.create(sys, opts, context),
        context == label_ ? &naps_left_ : nullptr, nap_);
  }

 private:
  class Backend final : public workload::Backend {
   public:
    Backend(std::unique_ptr<workload::Backend> inner,
            std::atomic<int>* naps_left, milliseconds nap)
        : inner_(std::move(inner)), naps_left_(naps_left), nap_(nap) {}
    workload::BackendKind kind() const override {
      return workload::BackendKind::kMock;
    }
    const std::string& substrate() const override {
      return inner_->substrate();
    }
    void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
                 workload::Measurement& out) override {
      if (naps_left_ != nullptr && naps_left_->fetch_sub(1) > 0) {
        std::this_thread::sleep_for(nap_);
      }
      inner_->measure(w, rng, scratch, out);
    }

   private:
    std::unique_ptr<workload::Backend> inner_;
    std::atomic<int>* naps_left_;
    milliseconds nap_;
  };

  workload::SimBackendFactory sim_;
  std::string label_;
  milliseconds nap_;
  std::atomic<int> naps_left_;
};

CampaignConfig config_at(int workers) {
  CampaignConfig config = small_config();
  config.workers = workers;
  return config;
}

// ---- Acceptance: fleet == in-process campaign, byte for byte.

TEST(Fleet, FaultFreeFleetMatchesInProcessCampaignAtAnyWorkerCount) {
  for (const int workers : {1, 2, 4}) {
    const CampaignConfig config = config_at(workers);
    const CampaignResult reference = Campaign(config).run();
    const FleetRunResult fleet =
        run_loopback_fleet(config, patient_options());
    expect_same_campaign(fleet, reference,
                         std::to_string(workers) + " workers");
    EXPECT_EQ(fleet.stats.requeues, 0);
    EXPECT_EQ(fleet.stats.heartbeat_misses, 0);
    EXPECT_EQ(fleet.stats.leases,
              static_cast<i64>(reference.cells.size()));
  }
}

// Dropped, duplicated and delayed lease_cell, ack and cell_done messages
// must not change the report: a lost lease is retransmitted when an idle
// heartbeat contradicts it, CellDone is retried until Acked and accepted
// exactly once, and a stale lease copy is answered from the finished one.
TEST(Fleet, MessageFaultsDoNotChangeTheReport) {
  for (const char* type : {"lease_cell", "ack", "cell_done"}) {
    for (const int workers : {1, 2, 4}) {
      const CampaignConfig config = config_at(workers);
      const CampaignResult reference = Campaign(config).run();
      FleetRunOptions opts = patient_options();
      FaultRule drop;  // the first one vanishes
      drop.action = FaultRule::Action::kDrop;
      drop.type = type;
      drop.times = 1;
      opts.faults.push_back(drop);
      FaultRule dup;  // every later one arrives twice
      dup.action = FaultRule::Action::kDuplicate;
      dup.type = type;
      opts.faults.push_back(dup);
      FaultRule delay;  // and one arrives late, after its duplicate
      delay.action = FaultRule::Action::kDelay;
      delay.type = type;
      delay.skip = 1;
      delay.times = 1;
      delay.delay = milliseconds(40);
      opts.faults.push_back(delay);
      const FleetRunResult fleet = run_loopback_fleet(config, opts);

      const std::string what =
          std::string(type) + " faults, " + std::to_string(workers) +
          " workers";
      expect_same_campaign(fleet, reference, what);
      EXPECT_GT(fleet.dropped, 0) << what;
      EXPECT_GT(fleet.duplicated, 0) << what;
      EXPECT_GT(fleet.delayed, 0) << what;
      // Every later cell_done arrives twice, so the coordinator's discard
      // path must run.
      if (std::string(type) == "cell_done") {
        EXPECT_GT(fleet.stats.duplicates, 0) << what;
      }
    }
  }
}

// ---- Acceptance: an executor dies; zero double-counted probes.

// The executor that runs the kill cell dies before reporting it; the
// coordinator declares it dead, re-queues the cell, and whichever executor
// pulls it next (the restarted one at 1 worker) runs it as the same logical
// worker with the same preload — so the whole report and checkpoint match.
TEST(Fleet, KilledWorkerCellIsRequeuedWithoutDoubleCounting) {
  for (const int workers : {1, 2, 4}) {
    const CampaignConfig config = config_at(workers);
    const CampaignResult reference = Campaign(config).run();
    FleetRunOptions opts = prompt_options();
    opts.kill_at_cell = reference.cells.front().cell.label();
    const FleetRunResult fleet = run_loopback_fleet(config, opts);

    const std::string what = std::to_string(workers) + " workers";
    expect_same_campaign(fleet, reference, what);
    EXPECT_GE(fleet.stats.heartbeat_misses, 1) << what;
    EXPECT_GE(fleet.stats.requeues, 1) << what;
    EXPECT_GT(fleet.stats.leases, static_cast<i64>(reference.cells.size()))
        << what;
  }
}

// A killed executor stays down for up to four heartbeat timeouts, so a
// kill whose heartbeat timeout is a quarter of the stall timeout or more is
// rejected before the campaign starts: the stall guard could fire first.
TEST(Fleet, KillTheStallGuardCannotAbsorbIsRejected) {
  FleetRunOptions opts = patient_options();
  opts.kill_at_cell = "B/Diag#0";
  opts.coordinator.heartbeat_timeout = opts.coordinator.stall_timeout / 4;
  EXPECT_THROW(run_loopback_fleet(small_config(), opts),
               std::invalid_argument);
}

// A zombie: one cell's first probe sleeps past the heartbeat timeout while
// the cell runs, so its executor is declared dead mid-cell and the cell is
// re-queued.  The zombie's late CellDone is Acked and discarded, the zombie
// reconnects, and the report is the in-process one.
TEST(Fleet, ZombieExecutorsLateResultIsDiscarded) {
  for (const int workers : {1, 2, 4}) {
    CampaignConfig config = config_at(workers);
    const CampaignResult reference = Campaign(config).run();
    const FleetRunOptions opts = prompt_options();
    config.backend_factory = std::make_shared<SleepingBackendFactory>(
        reference.cells.back().cell.label(),
        2 * opts.coordinator.heartbeat_timeout, 1);
    const FleetRunResult fleet = run_loopback_fleet(config, opts);

    const std::string what = std::to_string(workers) + " workers";
    expect_same_campaign(fleet, reference, what);
    EXPECT_GE(fleet.stats.heartbeat_misses, 1) << what;
    EXPECT_GE(fleet.stats.requeues, 1) << what;
  }
}

// A slow executor: every probe of one cell sleeps, so the executor running
// it falls behind while idle executors pull the rest of the ready list.
// Where cells run changes; what they report does not.
TEST(Fleet, SlowExecutorDoesNotChangeTheReport) {
  for (const int workers : {1, 2, 4}) {
    CampaignConfig config = config_at(workers);
    const CampaignResult reference = Campaign(config).run();
    config.backend_factory = std::make_shared<SleepingBackendFactory>(
        reference.cells.front().cell.label(), milliseconds(5), 1 << 30);
    const FleetRunResult fleet = run_loopback_fleet(config, patient_options());

    const std::string what = std::to_string(workers) + " workers";
    expect_same_campaign(fleet, reference, what);
    EXPECT_EQ(fleet.stats.requeues, 0) << what;
  }
}

// When no result can get through, the coordinator must fail loudly instead
// of hanging the harness.
TEST(Fleet, StallFailsLoudlyWhenNoResultArrives) {
  CampaignConfig config = small_config();
  config.subsystems = {'B'};
  config.seeds_per_cell = 1;
  config.workers = 1;

  FleetRunOptions opts;
  opts.coordinator.heartbeat_interval = milliseconds(25);
  opts.coordinator.heartbeat_timeout = milliseconds(300);
  opts.coordinator.stall_timeout = milliseconds(1500);
  FaultRule drop;
  drop.action = FaultRule::Action::kDrop;
  drop.type = "cell_done";
  opts.faults.push_back(drop);
  EXPECT_THROW(run_loopback_fleet(config, opts), std::runtime_error);
}

// ---- Acceptance: coordinator journal + resume, zero double-counting.

// The coordinator journals its begin record and each accepted CellDone,
// nothing else.  Cutting that journal at a frame boundary and resuming
// restores every journaled cell verbatim, leases only the remainder, and
// reports byte-identically — a journaled completed cell is never re-leased
// and its probes are never re-spent.
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
  ASSERT_EQ(rec.payloads.size(), 5u);  // begin + four cell_done frames
  EXPECT_TRUE(complete.partial_inserts.empty());

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
    std::string cut = orchestrator::kJournalMagic;
    for (std::size_t i = 0; i < k; ++i) {
      cut += orchestrator::journal_frame(rec.payloads[i]);
    }
    std::remove(cut_path.c_str());
    std::ofstream(cut_path, std::ios::binary) << cut;
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
