#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "catalog/anomalies.h"
#include "obs/telemetry.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/journal.h"
#include "workload/backend_mock.h"
#include "workload/backend_sim.h"
#include "workload/engine.h"

namespace collie::workload {
namespace {

Workload simple_write() {
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = 4;
  w.wqe_batch = 4;
  w.mr_size = 256 * KiB;
  w.pattern = {64 * KiB};
  return w;
}

TEST(Engine, FunctionalPassAcceptsCleanWorkloads) {
  Engine engine(sim::subsystem('F'));
  std::string err;
  EXPECT_TRUE(engine.validate_functional(simple_write(), &err)) << err;

  Workload send = simple_write();
  send.opcode = Opcode::kSend;
  EXPECT_TRUE(engine.validate_functional(send, &err)) << err;

  Workload read = simple_write();
  read.opcode = Opcode::kRead;
  EXPECT_TRUE(engine.validate_functional(read, &err)) << err;

  Workload ud = simple_write();
  ud.qp_type = QpType::kUD;
  ud.opcode = Opcode::kSend;
  ud.mtu = 2048;
  ud.pattern = {2048};
  EXPECT_TRUE(engine.validate_functional(ud, &err)) << err;
}

TEST(Engine, FunctionalPassAcceptsEveryConcreteAnomalySetting) {
  // The 18 Appendix-A settings must all be expressible as legal verbs
  // programs — they ran on real hardware.
  for (const auto& a : catalog::all_anomalies()) {
    Engine engine(sim::subsystem(a.primary_subsystem));
    std::string err;
    EXPECT_TRUE(engine.validate_functional(a.concrete, &err))
        << "anomaly #" << a.id << ": " << err;
  }
}

TEST(Engine, FunctionalPassRejectsInvalidWorkloads) {
  Engine engine(sim::subsystem('F'));
  std::string err;
  Workload bad = simple_write();
  bad.qp_type = QpType::kUD;  // UD WRITE is illegal
  EXPECT_FALSE(engine.validate_functional(bad, &err));
  EXPECT_NE(err.find("invalid workload"), std::string::npos);
}

TEST(Engine, MeasurementShape) {
  Engine engine(sim::subsystem('F'));
  Rng rng(11);
  const Measurement m = engine.run(simple_write(), rng);
  // Four counter fetches per iteration (§6).
  EXPECT_EQ(m.samples.size(), 4u);
  EXPECT_TRUE(m.stable);
  EXPECT_GE(m.cost_seconds, 20.0);
  EXPECT_LE(m.cost_seconds, 70.0);
  EXPECT_GT(m.rx_goodput_bps, gbps(150));
  EXPECT_GT(m.average.get(sim::PerfCounter::kTxGoodputBps), 0.0);
}

TEST(Engine, CostScalesWithSetupWork) {
  Engine engine(sim::subsystem('F'));
  Rng rng(11);
  Workload small = simple_write();
  Workload big = simple_write();
  big.num_qps = 15000;
  const double cost_small = engine.run(small, rng).cost_seconds;
  const double cost_big = engine.run(big, rng).cost_seconds;
  EXPECT_GT(cost_big, cost_small + 10.0);
}

TEST(Engine, AnomalousWorkloadMeasuresAnomalous) {
  Engine engine(sim::subsystem('F'));
  Rng rng(11);
  const Measurement m = engine.run(catalog::anomaly(1).concrete, rng);
  EXPECT_GT(m.pause_duration_ratio, 0.001);
  EXPECT_EQ(m.dominant, sim::Bottleneck::kRwqeBurstMiss);
}

TEST(Engine, FunctionalPassCanBeDisabled) {
  EngineOptions opts;
  opts.run_functional_pass = false;
  Engine engine(sim::subsystem('F'), opts);
  Rng rng(1);
  const Measurement m = engine.run(simple_write(), rng);
  EXPECT_GT(m.rx_goodput_bps, 0.0);
}

// ---- execution backends -----------------------------------------------------

TEST(Backend, SimBackendIsTheDefault) {
  Engine engine(sim::subsystem('F'));
  EXPECT_EQ(engine.backend().kind(), BackendKind::kSim);
  EXPECT_EQ(engine.backend().substrate(), "sim");
}

// A small deterministic campaign template every backend test shares: one
// subsystem-B cell, cell-scoped pool, deterministic execution — the shape
// journal record/replay requires.
orchestrator::CampaignConfig small_campaign() {
  orchestrator::CampaignConfig config;
  config.subsystems = {'B'};
  config.workers = 2;
  config.share = orchestrator::ShareScope::kCell;
  config.execution = orchestrator::ExecutionMode::kDeterministic;
  config.budget.seconds = 900.0;
  config.engine.run_functional_pass = false;
  return config;
}

std::string journal_tmp(const std::string& name) {
  const std::string path = ::testing::TempDir() + "collie_engine_" + name;
  std::remove(path.c_str());
  std::remove((path + ".torn").c_str());
  return path;
}

// A journaling campaign, wired the way `campaign --journal [--resume]`
// wires it.  `crash_after_probes` > 0 _exit(137)s mid-run.
std::string run_journaled(orchestrator::CampaignConfig config,
                          const std::string& path,
                          const orchestrator::JournalResume* resume,
                          i64 crash_after_probes = 0) {
  orchestrator::CampaignJournal journal(path, /*journal_every=*/4,
                                        crash_after_probes);
  config.journal = &journal;
  config.resume = resume;
  if (resume != nullptr) config.replay = resume->schedule;
  config.backend_factory = std::make_shared<orchestrator::SpliceBackendFactory>(
      nullptr, resume, &journal);
  return orchestrator::build_report(orchestrator::Campaign(config).run())
      .to_json();
}

orchestrator::JournalResume parse_journal_file(const std::string& path) {
  return orchestrator::parse_journal(
      orchestrator::recover_journal(path, /*repair=*/false).payloads);
}

struct Replayed {
  std::string report;
  u64 eval_count = 0;
  i64 trace_probes = 0;
  i64 experiments = 0;
};

// Replay a recording the way `campaign --replay` wires it, telemetry on so
// the zero-evaluation claim is observable.
Replayed replay_journal(orchestrator::CampaignConfig config,
                        const orchestrator::JournalResume& recording) {
  obs::Telemetry telemetry;
  config.replay = recording.schedule;
  config.backend_factory = orchestrator::journal_replay_factory(recording);
  config.telemetry = &telemetry;
  const orchestrator::CampaignResult result =
      orchestrator::Campaign(config).run();
  Replayed out;
  out.report = orchestrator::build_report(result).to_json();
  const obs::Snapshot snap = telemetry.snapshot();
  // The histogram must be registered: a missing one would read as zero
  // evaluations.
  EXPECT_EQ(snap.histograms.count("engine.eval_ns"), 1u);
  if (snap.histograms.count("engine.eval_ns") != 0) {
    out.eval_count = snap.histograms.at("engine.eval_ns").count;
  }
  if (snap.counters.count("engine.backend.trace") != 0) {
    out.trace_probes = snap.counters.at("engine.backend.trace");
  }
  for (const orchestrator::CellResult& cr : result.cells) {
    EXPECT_FALSE(cr.failed()) << cr.cell.label() << ": " << cr.error;
    out.experiments += cr.result.experiments;
  }
  return out;
}

TEST(Backend, JournalRecordReplayReportsAreByteIdentical) {
  // Leg 0: the plain simulator.
  orchestrator::CampaignConfig config = small_campaign();
  config.seeds_per_cell = 2;
  const std::string sim_report =
      orchestrator::build_report(orchestrator::Campaign(config).run())
          .to_json();

  // Leg 1: record.  Journaling is pure observation: same report.
  const std::string path = journal_tmp("record.journal");
  EXPECT_EQ(run_journaled(config, path, nullptr), sim_report);
  const orchestrator::JournalResume recording = parse_journal_file(path);
  EXPECT_EQ(recording.backend, "sim");

  // Leg 2: replay offline at 1 and 2 workers.  The report matches byte for
  // byte — substrate attribution, not transport — not a single simulator
  // evaluation ran, and every probe went through the journal.
  for (const int workers : {1, 2}) {
    orchestrator::CampaignConfig replay = config;
    replay.workers = workers;
    const Replayed r = replay_journal(replay, recording);
    EXPECT_EQ(r.report, sim_report) << workers << " workers";
    EXPECT_EQ(r.eval_count, 0u) << workers << " workers";
    EXPECT_GT(r.experiments, 0);
    EXPECT_EQ(r.trace_probes, r.experiments) << workers << " workers";
  }
  std::remove(path.c_str());
}

// Probe records concatenate across sessions: a journal that crashed and
// was resumed holds every cell's whole trajectory, so it replays to the
// uninterrupted report too.
TEST(Backend, CrashedThenResumedJournalReplaysByteIdentically) {
  orchestrator::CampaignConfig config = small_campaign();
  config.seeds_per_cell = 2;
  const std::string sim_report =
      orchestrator::build_report(orchestrator::Campaign(config).run())
          .to_json();

  const std::string path = journal_tmp("crash.journal");
  EXPECT_EXIT((void)run_journaled(config, path, nullptr,
                                  /*crash_after_probes=*/17),
              ::testing::ExitedWithCode(137), "");
  const orchestrator::JournalResume crashed = parse_journal_file(path);
  ASSERT_TRUE(crashed.has_begin);
  ASSERT_EQ(crashed.probes, 17);
  EXPECT_EQ(run_journaled(config, path, &crashed), sim_report);

  const orchestrator::JournalResume recording = parse_journal_file(path);
  EXPECT_EQ(recording.sessions, 2);
  const Replayed r = replay_journal(config, recording);
  EXPECT_EQ(r.report, sim_report);
  EXPECT_EQ(r.eval_count, 0u);
  EXPECT_EQ(r.trace_probes, r.experiments);
  std::remove(path.c_str());
}

// Two probes recorded through one engine under context "cell".
orchestrator::JournalResume record_two_probes(const std::string& path,
                                              Rng& rng) {
  {
    orchestrator::CampaignJournal journal(path, /*journal_every=*/1);
    orchestrator::SpliceBackendFactory factory(nullptr, nullptr, &journal);
    EngineOptions opts;
    opts.run_functional_pass = false;
    opts.backend_factory = &factory;
    opts.backend_context = "cell";
    Engine engine(sim::subsystem('F'), opts);
    engine.run(simple_write(), rng);
    engine.run(catalog::anomaly(1).concrete, rng);
  }
  return parse_journal_file(path);
}

TEST(Backend, ReplayDivergenceFailsLoudly) {
  const std::string path = journal_tmp("diverge.journal");
  Rng record_rng(3);
  const orchestrator::JournalResume recording =
      record_two_probes(path, record_rng);
  ASSERT_EQ(recording.recorded.at("cell").size(), 2u);
  const auto replay = orchestrator::journal_replay_factory(recording);
  EngineOptions opts;
  opts.run_functional_pass = false;
  opts.backend_factory = replay.get();
  opts.backend_context = "cell";
  const sim::Subsystem& sys = sim::subsystem('F');

  // A different workload at the cursor fails at that probe.
  {
    Engine engine(sys, opts);
    Rng rng(3);
    Workload other = simple_write();
    other.num_qps = 99;
    EXPECT_THROW(engine.run(other, rng), std::runtime_error);
  }
  // Running past the recorded sequence fails too.
  {
    Engine engine(sys, opts);
    Rng rng(3);
    engine.run(simple_write(), rng);
    engine.run(catalog::anomaly(1).concrete, rng);
    EXPECT_THROW(engine.run(simple_write(), rng), std::runtime_error);
  }
  // A context the journal never recorded runs out at its first probe.
  {
    EngineOptions other_ctx = opts;
    other_ctx.backend_context = "other-cell";
    Engine engine(sys, other_ctx);
    Rng rng(3);
    EXPECT_THROW(engine.run(simple_write(), rng), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(Backend, ReplayRestoresTheRecordedRngStream) {
  // The same generator feeds measurement jitter and search decisions, so a
  // replayed probe must leave the Rng exactly where the recording left it.
  const std::string path = journal_tmp("rng.journal");
  Rng record_rng(17);
  const orchestrator::JournalResume recording =
      record_two_probes(path, record_rng);

  const auto replay = orchestrator::journal_replay_factory(recording);
  EngineOptions opts;
  opts.run_functional_pass = false;
  opts.backend_factory = replay.get();
  opts.backend_context = "cell";
  Engine engine(sim::subsystem('F'), opts);
  Rng replay_rng(17);
  engine.run(simple_write(), replay_rng);
  engine.run(catalog::anomaly(1).concrete, replay_rng);
  EXPECT_EQ(replay_rng.state(), record_rng.state());
  // And the next draws agree.
  EXPECT_EQ(record_rng.next_u64(), replay_rng.next_u64());
  std::remove(path.c_str());
}

TEST(Backend, MockBackendDrivesACampaign) {
  // A scripted healthy fleet: full line rate, no pauses.  The search finds
  // nothing, the report attributes the mock substrate, and the probe count
  // matches the campaign's experiment count (cost accounting — which the
  // responder must not reset — drove the budget to exhaustion).
  auto factory = std::make_shared<MockBackendFactory>(
      [](const Workload&, Measurement& out) {
        script_measurement(out, gbps(195));
      });
  orchestrator::CampaignConfig config = small_campaign();
  config.backend_factory = factory;
  const orchestrator::CampaignResult result =
      orchestrator::Campaign(config).run();
  const orchestrator::CampaignReport report =
      orchestrator::build_report(result);
  EXPECT_EQ(report.backend, "mock");
  EXPECT_EQ(report.anomalies.size(), 0u);
  EXPECT_GT(report.total_experiments, 0);
  EXPECT_EQ(factory->total_probes(),
            static_cast<i64>(report.total_experiments));
  // The report round-trips with the substrate label intact.
  EXPECT_EQ(
      orchestrator::campaign_report_from_json(report.to_json()).backend,
      "mock");
}

}  // namespace
}  // namespace collie::workload
