// Self-tests of the benchmark's own helpers: the order statistics and the
// layer attribution (necessity probes, extraction windows, self time).
//
//   python3 campbench/run.py --self-test
#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "layers.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/journal.h"
#include "workload/backend_mock.h"

using namespace collie;
using namespace collie::orchestrator;
using namespace campbench;

namespace {

// ---- Order statistics (hand-computed) ------------------------------------

TEST(OrderStats, PercentileInterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 3.97);  // rank 2.97
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(OrderStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles a = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.median, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  const Quartiles b = quartiles({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(b.q1, 1.25);
  EXPECT_DOUBLE_EQ(b.median, 2.5);
  EXPECT_DOUBLE_EQ(b.q3, 3.75);
  // Two points extrapolate: statistics.quantiles([1, 3], n=4) == [0.5, 2, 3.5]
  const Quartiles c = quartiles({3, 1});
  EXPECT_DOUBLE_EQ(c.q1, 0.5);
  EXPECT_DOUBLE_EQ(c.median, 2.0);
  EXPECT_DOUBLE_EQ(c.q3, 3.5);
  EXPECT_DOUBLE_EQ(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0);
  EXPECT_DOUBLE_EQ(iqr_share({42.0}), 0.0);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

// ---- Attribution on a hand-written event sequence -------------------------

TEST(LayerTrace, AttributesNecessityProbesAndSelfTime) {
  LayerTrace t;
  t.begin_cell();
  t.inner_probe(0, 10, false);   // search step
  t.covers(12, 15, false);       // miss: opens an extraction candidate at 15
  t.inner_probe(20, 30, true);   // necessity probe (re-measured)
  t.inner_probe(35, 45, false);  // necessity probe
  t.insert(50, 54);              // closes it: window 15..50, children 20
  t.inner_probe(60, 70, false);
  t.covers(71, 72, true);        // hit: opens a candidate ...
  t.inner_probe(80, 90, false);  // ... an ordinary step ...
  t.covers(91, 93, false);       // ... discarded by the next covers()
  t.add_window(100);

  EXPECT_EQ(t.probes(), 5);
  EXPECT_EQ(t.remeasured(), 1);
  EXPECT_EQ(t.measure_ns(), 50u);
  EXPECT_EQ(t.covers_calls(), 3);
  EXPECT_EQ(t.covers_hits(), 1);
  EXPECT_EQ(t.covers_self_ns(), 6u);
  EXPECT_EQ(t.extractions(), 1);
  EXPECT_EQ(t.necessity_probes(), 2);
  ASSERT_EQ(t.extract_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(t.extract_ms()[0], 35e-6);
  EXPECT_EQ(t.extract_self_ns(), 15u);
  EXPECT_EQ(t.insert_ns(), 4u);
  EXPECT_EQ(t.unmatched_inserts(), 0);
  EXPECT_EQ(t.interval_us(), (std::vector<double>{0.020, 0.015, 0.025, 0.020}));
  EXPECT_DOUBLE_EQ(t.unattributed_ns(), 100.0 - (50 + 6 + 15 + 4));

  // A new cell restarts the probe intervals and drops any open candidate.
  t.covers(100, 101, false);
  t.begin_cell();
  t.inner_probe(200, 210, false);
  t.insert(211, 212);
  EXPECT_EQ(t.interval_us().size(), 4u);
  EXPECT_EQ(t.extractions(), 1);
  EXPECT_EQ(t.unmatched_inserts(), 1);
}

TEST(LayerTrace, OuterMinusInnerIsTheJournalShare) {
  LayerTrace t;
  t.set_has_outer(true);
  t.begin_cell();
  t.inner_probe(2, 8, false);  // substrate inside the splice backend
  t.outer_probe(0, 10);        // splice + journal record around it
  t.covers(11, 12, false);
  t.inner_probe(15, 18, false);
  t.outer_probe(14, 20);
  t.insert(22, 23);
  t.add_window(30);
  EXPECT_EQ(t.measure_ns(), 9u);
  EXPECT_EQ(t.journal_ns(), 4u + 3u);
  EXPECT_EQ(t.journal_probe_us(), (std::vector<double>{0.004, 0.003}));
  EXPECT_EQ(t.interval_us(), (std::vector<double>{0.014}));
  EXPECT_EQ(t.necessity_probes(), 1);
  // Extraction window 12..22 minus the whole outer call (6).
  EXPECT_EQ(t.extract_self_ns(), 4u);
  EXPECT_DOUBLE_EQ(t.unattributed_ns(), 30.0 - (9 + 7 + 1 + 4 + 1));
}

// ---- Attribution on a scripted campaign cell ------------------------------

// Deterministic clock: every reading advances time by one tick, so every
// span has a nonzero, reproducible length.
u64 g_ticks = 0;
u64 tick_clock() { return ++g_ticks; }

// A landscape with one anomaly family: UD traffic pauses, the rest runs at
// line rate.
void responder(const Workload& w, workload::Measurement& out) {
  if (w.qp_type == QpType::kUD) {
    workload::script_measurement(out, gbps(195), /*pause_ratio=*/0.05);
  } else {
    workload::script_measurement(out, gbps(195));
  }
}

CampaignConfig mock_config(std::shared_ptr<workload::BackendFactory> factory) {
  CampaignConfig config;
  config.subsystems = {'F'};
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.workers = 1;
  config.share = ShareScope::kSubsystem;
  config.execution = ExecutionMode::kDeterministic;
  config.budget.seconds = 4 * 3600.0;
  config.engine.run_functional_pass = false;
  config.backend_factory = std::move(factory);
  return config;
}

i64 necessity_points(const CampaignResult& r) {
  i64 n = 0;
  for (const CellResult& cr : r.cells) {
    for (const core::TracePoint& p : cr.result.trace) n += p.in_mfs_extraction;
  }
  return n;
}

TEST(LayerTrace, MockCampaignCountsMatchTheSearchOracle) {
  // Reference: the untraced campaign on the same mock landscape.
  CampaignConfig plain = mock_config(
      std::make_shared<workload::MockBackendFactory>(responder));
  const CampaignResult ref = Campaign(plain).run();

  g_ticks = 0;
  LayerTrace t(tick_clock);
  CampaignConfig traced = mock_config(std::make_shared<TimingBackendFactory>(
      std::make_shared<workload::MockBackendFactory>(responder), &t,
      ProbeRole::kInner));
  const u64 w0 = t.now();
  const CampaignResult got = run_traced_campaign(traced, &t);
  t.add_window(t.now() - w0);

  // The traced executor reproduces Campaign::run exactly.
  EXPECT_EQ(build_report(got).to_json(), build_report(ref).to_json());

  i64 experiments = 0, found = 0;
  for (const CellResult& cr : got.cells) {
    ASSERT_FALSE(cr.failed()) << cr.error;
    experiments += cr.result.experiments;
    found += static_cast<i64>(cr.result.found.size());
  }
  ASSERT_GT(found, 0);  // the landscape has anomalies to extract
  EXPECT_EQ(t.probes(), experiments);
  EXPECT_EQ(t.extractions(), found);
  EXPECT_EQ(t.extractions(), got.pool.entries);
  EXPECT_EQ(t.unmatched_inserts(), 0);
  // Necessity probes are exactly the search's in-extraction trace points.
  EXPECT_GT(t.necessity_probes(), 0);
  EXPECT_EQ(t.necessity_probes(), necessity_points(got));
  EXPECT_EQ(static_cast<i64>(t.extract_ms().size()), found);
  // Self times partition the window.
  const double attributed =
      static_cast<double>(t.measure_ns() + t.covers_self_ns() +
                          t.extract_self_ns() + t.insert_ns() +
                          t.report_ns() + t.journal_ns());
  EXPECT_GE(t.unattributed_ns(), 0.0);
  EXPECT_DOUBLE_EQ(attributed + t.unattributed_ns(),
                   static_cast<double>(t.window_ns()));
}

TEST(LayerTrace, JournaledMockCampaignAttributesTheJournal) {
  const std::string path = "campbench_selftest.journal";
  std::filesystem::remove(path);
  LayerTrace t;
  i64 probes = 0;
  {
    CampaignJournal journal(path, 64);
    auto inner = std::make_shared<TimingBackendFactory>(
        std::make_shared<workload::MockBackendFactory>(responder), &t,
        ProbeRole::kInner);
    CampaignConfig config = mock_config(std::make_shared<TimingBackendFactory>(
        std::make_shared<SpliceBackendFactory>(inner, nullptr, &journal), &t,
        ProbeRole::kOuter));
    config.journal = &journal;
    const CampaignResult got = run_traced_campaign(config, &t);
    for (const CellResult& cr : got.cells) probes += cr.result.experiments;
    EXPECT_EQ(journal.probes(), probes);
  }
  EXPECT_EQ(t.probes(), probes);
  EXPECT_EQ(static_cast<i64>(t.journal_probe_us().size()), probes);
  EXPECT_GT(t.journal_ns(), 0u);
  const JournalRecovery rec = recover_journal(path, /*repair=*/false);
  EXPECT_FALSE(rec.torn);
  EXPECT_TRUE(parse_journal(rec.payloads).has_begin);
  std::filesystem::remove(path);
}

}  // namespace
