#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/anomalies.h"
#include "core/json_reader.h"
#include "core/search.h"
#include "core/serialize.h"
#include "obs/telemetry.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/checkpoint.h"
#include "orchestrator/journal.h"
#include "orchestrator/mfs_pool.h"
#include "orchestrator/scheduler.h"
#include "sim/subsystem.h"
#include "workload/backend_sim.h"

namespace collie::orchestrator {
namespace {

// An MFS whose single unconstrained numeric condition covers every workload.
core::Mfs cover_all_mfs(core::Symptom symptom) {
  core::Mfs mfs;
  mfs.symptom = symptom;
  core::FeatureCondition cond;
  cond.feature = core::Feature::kNumQps;
  cond.categorical = false;
  mfs.conditions.push_back(cond);
  return mfs;
}

// ---- ConcurrentMfsPool ------------------------------------------------------

TEST(ConcurrentMfsPoolTest, CoversOnlyWithinScope) {
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(1);
  const Workload w = space.random_point(rng);

  ConcurrentMfsPool pool;
  ConcurrentMfsPool::View f = pool.view("F", 0);
  ConcurrentMfsPool::View b = pool.view("B", 0);
  EXPECT_FALSE(f.covers(space, w));
  pool.insert("F", space, cover_all_mfs(core::Symptom::kPauseFrames), 0);
  EXPECT_TRUE(f.covers(space, w));
  EXPECT_FALSE(b.covers(space, w));
  EXPECT_EQ(pool.size("F"), 1u);
  EXPECT_EQ(pool.size("B"), 0u);
}

TEST(ConcurrentMfsPoolTest, AttributesCrossWorkerHits) {
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(2);
  const Workload w = space.random_point(rng);

  ConcurrentMfsPool pool;
  ConcurrentMfsPool::View inserter = pool.view("F", /*worker=*/0);
  ConcurrentMfsPool::View same_worker = pool.view("F", /*worker=*/0);
  ConcurrentMfsPool::View other_worker = pool.view("F", /*worker=*/1);

  inserter.insert(space, cover_all_mfs(core::Symptom::kLowThroughput));
  EXPECT_TRUE(same_worker.covers(space, w));
  EXPECT_EQ(same_worker.cross_worker_hits(), 0);
  EXPECT_TRUE(other_worker.covers(space, w));
  EXPECT_EQ(other_worker.cross_worker_hits(), 1);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.cross_worker_hits, 1);
}

TEST(ConcurrentMfsPoolTest, CountsDuplicateInserts) {
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(3);

  ConcurrentMfsPool pool;
  core::Mfs a = cover_all_mfs(core::Symptom::kPauseFrames);
  a.witness = space.random_point(rng);
  core::Mfs b = cover_all_mfs(core::Symptom::kPauseFrames);
  b.witness = space.random_point(rng);

  EXPECT_EQ(pool.insert("F", space, a, 0), 0);
  EXPECT_EQ(pool.insert("F", space, b, 1), 1);  // a already covers b's witness
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.duplicate_inserts, 1);
}

TEST(ConcurrentMfsPoolTest, FirstCoverProvenanceMatchesInsertionOrder) {
  // Two overlapping regions from different workers: a hit must attribute to
  // the FIRST inserted entry (the linear scan's answer), not just any
  // matching one — the index returns the lowest insertion position.
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(5);
  const Workload w = space.random_point(rng);

  ConcurrentMfsPool pool;
  pool.insert("F", space, cover_all_mfs(core::Symptom::kPauseFrames),
              /*origin_worker=*/3);
  pool.insert("F", space, cover_all_mfs(core::Symptom::kPauseFrames),
              /*origin_worker=*/9);
  // Requester 3 matches its own (first) entry: not a cross-worker hit even
  // though worker 9's overlapping entry would be one.
  ConcurrentMfsPool::View three = pool.view("F", 3);
  ConcurrentMfsPool::View nine = pool.view("F", 9);
  EXPECT_TRUE(three.covers(space, w));
  EXPECT_EQ(three.cross_worker_hits(), 0);
  EXPECT_TRUE(nine.covers(space, w));
  EXPECT_EQ(nine.cross_worker_hits(), 1);
}

TEST(ConcurrentMfsPoolTest, SnapshotPreservesInsertionOrder) {
  const core::SearchSpace space(sim::subsystem('F'));
  ConcurrentMfsPool pool;
  pool.insert("F", space, cover_all_mfs(core::Symptom::kPauseFrames), 0);
  pool.insert("F", space, cover_all_mfs(core::Symptom::kLowThroughput), 1);
  const auto snap = pool.snapshot("F");
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].index, 0);
  EXPECT_EQ(snap[0].symptom, core::Symptom::kPauseFrames);
  EXPECT_EQ(snap[1].index, 1);
  EXPECT_EQ(snap[1].symptom, core::Symptom::kLowThroughput);
}

// ---- View reads -------------------------------------------------------------

// An MFS pinning num_qps to one off-grid value: distinct `qps` values give
// disjoint regions, so each insert adds coverage only its witness shows.
core::Mfs point_mfs(const core::SearchSpace& space, Rng& rng, int qps) {
  core::Mfs m;
  m.symptom = core::Symptom::kLowThroughput;
  m.witness = space.random_point(rng);
  m.witness.num_qps = qps;
  core::FeatureCondition c;
  c.feature = core::Feature::kNumQps;
  c.categorical = false;
  c.lo = qps;
  c.hi = qps;
  m.conditions.push_back(c);
  return m;
}

// A view that read before N inserts sees all N on its next covers(): it
// reads its scope's index directly, with nothing cached.
TEST(ConcurrentMfsPoolTest, ViewSeesEveryInsertSinceItsLastRead) {
  const core::SearchSpace space(sim::subsystem('F'));
  constexpr int kInserts = 8;
  Rng rng(67);
  std::vector<core::Mfs> mfses;
  for (int i = 0; i < kInserts; ++i) {
    mfses.push_back(point_mfs(space, rng, 1000 + i));
  }
  ConcurrentMfsPool pool;
  ConcurrentMfsPool::View view = pool.view("F", /*worker=*/1);
  for (const core::Mfs& m : mfses) EXPECT_FALSE(view.covers(space, m.witness));
  for (const core::Mfs& m : mfses) pool.insert("F", space, m, /*worker=*/0);
  for (const core::Mfs& m : mfses) EXPECT_TRUE(view.covers(space, m.witness));
  EXPECT_EQ(view.hits(), kInserts);
  EXPECT_EQ(view.cross_worker_hits(), kInserts);
  EXPECT_EQ(view.size(), static_cast<std::size_t>(kInserts));
  // A second round on the same view, and a warm load seen through
  // covers_preloaded(), refresh the same way.
  core::Mfs late = point_mfs(space, rng, 999);
  EXPECT_FALSE(view.covers(space, late.witness));
  EXPECT_FALSE(view.covers_preloaded(space, late.witness));
  pool.load_scope("F", {late});
  EXPECT_TRUE(view.covers_preloaded(space, late.witness));
  EXPECT_EQ(view.warm_hits(), 1);
}

// ---- MFS-overlap criterion --------------------------------------------------

// An MFS pinning num_qps to [lo, hi]; witnesses fall at the low edge.
core::Mfs qps_range_mfs(core::Symptom symptom, const core::SearchSpace& space,
                        double lo, double hi) {
  core::Mfs mfs;
  mfs.symptom = symptom;
  core::FeatureCondition cond;
  cond.feature = core::Feature::kNumQps;
  cond.categorical = false;
  cond.lo = lo;
  cond.hi = hi;
  mfs.conditions.push_back(cond);
  Rng rng(5);
  mfs.witness = space.random_point(rng);
  mfs.witness.num_qps = static_cast<int>(lo);
  space.fixup(mfs.witness);
  return mfs;
}

// The pool's duplicate-insert accounting and the campaign report's dedup
// must agree on what "the same anomaly region" means — both delegate to
// core::same_anomaly_region, and this pins them to identical verdicts on
// shared fixtures.
TEST(MfsOverlapCriterion, PoolAndReportAgree) {
  const core::SearchSpace space(sim::subsystem('F'));
  using core::Symptom;

  struct Fixture {
    core::Mfs a;
    core::Mfs b;
    bool overlap;
  };
  std::vector<Fixture> fixtures;
  // Overlapping ranges with witnesses inside each other's region.
  fixtures.push_back({qps_range_mfs(Symptom::kPauseFrames, space, 8, 128),
                      qps_range_mfs(Symptom::kPauseFrames, space, 8, 64),
                      true});
  // Disjoint ranges.
  fixtures.push_back({qps_range_mfs(Symptom::kPauseFrames, space, 8, 64),
                      qps_range_mfs(Symptom::kPauseFrames, space, 512, 1024),
                      false});
  // Same region, different symptom: never the same anomaly.
  fixtures.push_back({qps_range_mfs(Symptom::kPauseFrames, space, 8, 128),
                      qps_range_mfs(Symptom::kLowThroughput, space, 8, 64),
                      false});

  for (std::size_t fi = 0; fi < fixtures.size(); ++fi) {
    const Fixture& fx = fixtures[fi];
    EXPECT_EQ(core::same_anomaly_region(space, fx.a, fx.b), fx.overlap)
        << "fixture " << fi;

    // Pool path: the second insert counts a duplicate iff the regions
    // overlap.
    ConcurrentMfsPool pool;
    pool.insert("F", space, fx.a, 0);
    pool.insert("F", space, fx.b, 1);
    EXPECT_EQ(pool.stats().duplicate_inserts, fx.overlap ? 1 : 0)
        << "fixture " << fi;

    // Report path: two single-discovery cells collapse iff the regions
    // overlap.
    CampaignResult result;
    for (const core::Mfs* mfs : {&fx.a, &fx.b}) {
      CellResult cr;
      cr.cell.subsystem = 'F';
      cr.worker = 0;
      core::FoundAnomaly found;
      found.mfs = *mfs;
      cr.result.found.push_back(std::move(found));
      result.cells.push_back(std::move(cr));
    }
    const CampaignReport report = build_report(result);
    EXPECT_EQ(report.anomalies.size(), fx.overlap ? 1u : 2u)
        << "fixture " << fi;
  }
}

// ---- Engine const-safety ----------------------------------------------------

TEST(ParallelEvaluationTest, SharedEngineGivesIdenticalResultsAcrossThreads) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const workload::Engine engine(sys);
  const core::SearchSpace space(sys);

  const Rng root(11);
  constexpr int kWorkloads = 24;
  std::vector<Workload> workloads;
  {
    Rng sampler = root.split(0);
    for (int i = 0; i < kWorkloads; ++i) {
      workloads.push_back(space.random_point(sampler));
    }
  }

  auto evaluate_all = [&](std::vector<workload::Measurement>& out) {
    out.resize(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      Rng rng = root.split(1 + i);  // per-workload stream
      out[i] = engine.run(workloads[i], rng);
    }
  };

  std::vector<workload::Measurement> serial;
  evaluate_all(serial);

  // Two threads evaluating the same sequence against the shared const
  // engine; per-workload rng streams make each evaluation self-contained.
  std::vector<workload::Measurement> t1_out, t2_out;
  std::thread t1([&] { evaluate_all(t1_out); });
  std::thread t2([&] { evaluate_all(t2_out); });
  t1.join();
  t2.join();

  for (std::size_t i = 0; i < workloads.size(); ++i) {
    for (const auto* par : {&t1_out, &t2_out}) {
      EXPECT_DOUBLE_EQ((*par)[i].rx_goodput_bps, serial[i].rx_goodput_bps);
      EXPECT_DOUBLE_EQ((*par)[i].pause_duration_ratio,
                       serial[i].pause_duration_ratio);
      EXPECT_DOUBLE_EQ((*par)[i].cost_seconds, serial[i].cost_seconds);
      EXPECT_EQ((*par)[i].dominant, serial[i].dominant);
    }
  }
}

// ---- Campaign ---------------------------------------------------------------

TEST(CampaignTest, PlanIsDeterministicAndCoversTheGrid) {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.seeds_per_cell = 2;
  const Campaign campaign(config);

  const auto plan = campaign.plan();
  ASSERT_EQ(plan.size(), 8u);
  const auto plan2 = campaign.plan();
  std::set<std::string> labels;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].label(), plan2[i].label());
    EXPECT_EQ(plan[i].stream, static_cast<u64>(i));
    labels.insert(plan[i].label());
  }
  EXPECT_EQ(labels.size(), 8u);  // no duplicate cells
  EXPECT_EQ(plan[0].label(), "B/Diag#0");
  EXPECT_EQ(plan[0].scope(ShareScope::kSubsystem), "B");
  EXPECT_EQ(plan[0].scope(ShareScope::kCell), "B/Diag#0");
}

// A grid size below one is an error, not a request for one worker or one
// seed: the constructor never silently runs some other grid.
TEST(CampaignTest, ConstructorRejectsGridSizesBelowOne) {
  CampaignConfig config;
  config.subsystems = {'F'};
  for (const int bad : {0, -1}) {
    CampaignConfig workers = config;
    workers.workers = bad;
    EXPECT_THROW(Campaign{workers}, std::invalid_argument) << bad;
    CampaignConfig seeds = config;
    seeds.seeds_per_cell = bad;
    EXPECT_THROW(Campaign{seeds}, std::invalid_argument) << bad;
  }
  // Budgets must be positive and finite, or the search never runs out.
  for (const double bad : {0.0, -3600.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    CampaignConfig budget = config;
    budget.budget.seconds = bad;
    EXPECT_THROW(Campaign{budget}, std::invalid_argument) << bad;
    CampaignConfig cycle = config;
    cycle.budget_cycle_seconds = {3600.0, bad};
    EXPECT_THROW(Campaign{cycle}, std::invalid_argument) << bad;
  }
  config.workers = 1;
  config.seeds_per_cell = 1;
  EXPECT_EQ(Campaign(config).plan().size(), 1u);
}

TEST(CampaignTest, FabricScenariosAreCampaignDimensions) {
  CampaignConfig config;
  config.subsystems = {'F'};
  config.fabrics = {"pair", "hetero", "fanin4"};
  config.modes = {core::GuidanceMode::kDiag};
  config.seeds_per_cell = 1;
  const Campaign campaign(config);

  const auto plan = campaign.plan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].label(), "F/Diag#0");  // pair keeps the seed's labels
  EXPECT_EQ(plan[1].label(), "F@hetero/Diag#0");
  EXPECT_EQ(plan[2].label(), "F@fanin4/Diag#0");
  // MFS regions only transfer within one scenario's space, so even the
  // widest scope separates scenarios.
  EXPECT_EQ(plan[0].scope(ShareScope::kSubsystem), "F");
  EXPECT_EQ(plan[1].scope(ShareScope::kSubsystem), "F@hetero");

  // Unknown scenarios are rejected at construction.
  CampaignConfig bad = config;
  bad.fabrics = {"no-such-fabric"};
  EXPECT_THROW(Campaign{bad}, std::invalid_argument);
}

// The tentpole acceptance: a campaign over the three catalog scenarios runs
// to completion with per-scenario coverage rows, and the pair cell inside
// the mixed campaign reproduces the standalone serial driver exactly.
TEST(CampaignTest, ThreeFabricScenarioCampaignRunsWithPerScenarioCoverage) {
  CampaignConfig config;
  config.subsystems = {'F'};
  config.fabrics = {"pair", "hetero", "fanin4"};
  config.modes = {core::GuidanceMode::kDiag};
  config.budget.seconds = 2 * 3600.0;
  config.campaign_seed = 17;
  config.workers = 1;
  config.share = ShareScope::kCell;

  const CampaignResult result = Campaign(config).run();
  ASSERT_EQ(result.cells.size(), 3u);
  for (const CellResult& cr : result.cells) {
    EXPECT_GT(cr.result.experiments, 0) << cr.cell.label();
    EXPECT_GE(cr.result.elapsed_seconds, config.budget.seconds)
        << cr.cell.label();
  }

  const CampaignReport report = build_report(result);
  ASSERT_EQ(report.coverage.size(), 3u);
  EXPECT_EQ(report.coverage[0].fabric, "pair");
  EXPECT_EQ(report.coverage[1].fabric, "hetero");
  EXPECT_EQ(report.coverage[2].fabric, "fanin4");
  for (const SubsystemCoverage& cov : report.coverage) {
    EXPECT_EQ(cov.subsystem, 'F');
    EXPECT_EQ(cov.cells, 1);
    EXPECT_GT(cov.experiments, 0) << cov.fabric;
  }
  const std::string text = report.render();
  EXPECT_NE(text.find("fanin4"), std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"fabric\":\"hetero\""), std::string::npos);

  // Serial (1-worker) equivalence preserved: the pair cell replays a plain
  // SearchDriver run on the unmodified catalog subsystem, stream 0.
  const sim::Subsystem& sys = sim::subsystem('F');
  const workload::Engine engine(sys);
  const core::SearchSpace space(sys);
  core::SearchDriver driver(engine, space);
  core::SaConfig sa;
  sa.mode = core::GuidanceMode::kDiag;
  Rng rng = Rng(config.campaign_seed).split(0);
  const core::SearchResult serial =
      driver.run_simulated_annealing(sa, config.budget, rng);
  const core::SearchResult& pair_cell = result.cells[0].result;
  EXPECT_EQ(pair_cell.experiments, serial.experiments);
  EXPECT_DOUBLE_EQ(pair_cell.elapsed_seconds, serial.elapsed_seconds);
  ASSERT_EQ(pair_cell.found.size(), serial.found.size());
  for (std::size_t f = 0; f < serial.found.size(); ++f) {
    EXPECT_EQ(pair_cell.found[f].mfs.witness, serial.found[f].mfs.witness);
  }
}

TEST(CampaignTest, CcScenariosAreCampaignDimensions) {
  CampaignConfig config;
  config.subsystems = {'F'};
  config.fabrics = {"fanin4"};
  config.ccs = {"off", "dcqcn", "mistuned"};
  config.modes = {core::GuidanceMode::kDiag};
  const Campaign campaign(config);

  const auto plan = campaign.plan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].label(), "F@fanin4/Diag#0");  // cc=off keeps old labels
  EXPECT_EQ(plan[1].label(), "F@fanin4+dcqcn/Diag#0");
  EXPECT_EQ(plan[2].label(), "F@fanin4+mistuned/Diag#0");
  // CC scenarios are distinct search spaces: scopes separate them.
  EXPECT_EQ(plan[0].scope(ShareScope::kSubsystem), "F@fanin4");
  EXPECT_EQ(plan[1].scope(ShareScope::kSubsystem), "F@fanin4+dcqcn");

  // Materialization arms both halves of the CC layer (or neither).
  EXPECT_FALSE(plan[0].materialize().cc_armed());
  EXPECT_TRUE(plan[1].materialize().cc_armed());
  EXPECT_TRUE(core::SearchSpace(plan[1].materialize()).cc_searchable());
  // The mistuned scenario arms the NIC but its thresholds cannot mark.
  const sim::Subsystem mist = plan[2].materialize();
  EXPECT_TRUE(mist.cc_armed());
  EXPECT_FALSE(mist.fabric.ecn(1).can_mark());

  CampaignConfig bad = config;
  bad.ccs = {"no-such-cc"};
  EXPECT_THROW(Campaign{bad}, std::invalid_argument);
}

// Regression: a cell that errors mid-run (here: a subsystem id missing from
// the catalog) used to take down the fleet — and, if it had been recorded,
// the report would have counted it as covered search time.  Now the failure
// is captured on the CellResult and the coverage rows separate covered
// cells from failed ones.
TEST(CampaignTest, FailedCellDoesNotCountAsCovered) {
  CampaignConfig config;
  config.subsystems = {'B', 'Z'};  // 'Z' does not exist
  config.modes = {core::GuidanceMode::kDiag};
  config.strategy = Strategy::kRandom;
  config.budget.seconds = 600.0;
  config.workers = 2;

  const CampaignResult result = Campaign(config).run();  // must not throw
  ASSERT_EQ(result.cells.size(), 2u);
  const CellResult& good = result.cells[0];
  const CellResult& bad = result.cells[1];
  EXPECT_FALSE(good.failed());
  EXPECT_TRUE(bad.failed());
  EXPECT_NE(bad.error.find('Z'), std::string::npos);
  EXPECT_EQ(bad.result.experiments, 0);

  const CampaignReport report = build_report(result);
  ASSERT_EQ(report.coverage.size(), 2u);
  const SubsystemCoverage& cov_b = report.coverage[0];
  const SubsystemCoverage& cov_z = report.coverage[1];
  EXPECT_EQ(cov_b.subsystem, 'B');
  EXPECT_EQ(cov_b.cells, 1);
  EXPECT_EQ(cov_b.failed_cells, 0);
  EXPECT_GT(cov_b.experiments, 0);
  EXPECT_EQ(cov_z.subsystem, 'Z');
  EXPECT_EQ(cov_z.cells, 0);  // an aborted cell covered nothing
  EXPECT_EQ(cov_z.failed_cells, 1);
  EXPECT_EQ(cov_z.experiments, 0);
  EXPECT_DOUBLE_EQ(cov_z.elapsed_seconds, 0.0);
  EXPECT_EQ(report.total_experiments, cov_b.experiments);

  // The failure is visible in both renderings.
  EXPECT_NE(report.render().find("failed"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"failed_cells\":1"), std::string::npos);

  // The single-thread run survives failing cells too.
  config.workers = 1;
  const CampaignResult single = Campaign(config).run();
  ASSERT_EQ(single.cells.size(), 2u);
  EXPECT_TRUE(single.cells[1].failed());

  // An unknown id fails its cell, but a repeated grid entry is rejected up
  // front: its cells would share a label ("B/Diag#0" twice), and the
  // journal, checkpoints and report key cells by label.
  const auto rejects_duplicate = [](CampaignConfig dup, const char* what) {
    try {
      Campaign{std::move(dup)};
      ADD_FAILURE() << "duplicate " << what << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  CampaignConfig dup = config;
  dup.subsystems = {'B', 'F', 'B'};
  rejects_duplicate(dup, "'B'");
  dup = config;
  dup.fabrics = {"pair", "pair"};
  rejects_duplicate(dup, "'pair'");
  dup = config;
  dup.ccs = {"off", "dcqcn", "dcqcn"};
  rejects_duplicate(dup, "'dcqcn'");
  dup = config;
  dup.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kDiag};
  rejects_duplicate(dup, "mode");
}

// The CC acceptance: a campaign over (subsystem x fabric x cc x mode x
// seed) discovers at least one anomaly region with a necessary condition
// in a CC-parameter dimension — the search found a workload whose anomaly
// appears or disappears with the DCQCN configuration.
TEST(CampaignTest, CcCampaignDiscoversCcParameterAnomalyRegion) {
  CampaignConfig config;
  config.subsystems = {'F'};
  config.fabrics = {"fanin4"};
  config.ccs = {"dcqcn"};
  config.modes = {core::GuidanceMode::kDiag};
  config.budget.seconds = 2 * 3600.0;
  config.campaign_seed = 17;
  config.workers = 1;

  const CampaignResult result = Campaign(config).run();
  const CampaignReport report = build_report(result);
  ASSERT_FALSE(report.anomalies.empty());
  bool cc_conditioned = false;
  for (const DedupedAnomaly& a : report.anomalies) {
    EXPECT_EQ(a.cc, "dcqcn");
    for (const core::FeatureCondition& c : a.representative.conditions) {
      if (c.feature == core::Feature::kDcqcn ||
          c.feature == core::Feature::kCcRateAi ||
          c.feature == core::Feature::kCcAlphaG) {
        cc_conditioned = true;
      }
    }
  }
  EXPECT_TRUE(cc_conditioned)
      << "no discovered anomaly region has a CC-parameter condition";
}

CampaignConfig small_campaign_config() {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag};
  config.budget.seconds = 2 * 3600.0;
  config.campaign_seed = 17;
  return config;
}

TEST(CampaignTest, OneWorkerCampaignReproducesSerialDriverExactly) {
  CampaignConfig config = small_campaign_config();
  config.workers = 1;
  config.share = ShareScope::kCell;
  Campaign campaign(config);
  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.cells.size(), 2u);

  const Rng root(config.campaign_seed);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cr = result.cells[i];
    const sim::Subsystem& sys = sim::subsystem(cr.cell.subsystem);
    const workload::Engine engine(sys);
    const core::SearchSpace space(sys);
    core::SearchDriver driver(engine, space);
    core::SaConfig sa;
    sa.mode = cr.cell.mode;
    Rng rng = root.split(static_cast<u64>(i));
    const core::SearchResult serial =
        driver.run_simulated_annealing(sa, config.budget, rng);

    EXPECT_EQ(cr.result.experiments, serial.experiments);
    EXPECT_EQ(cr.result.mfs_skips, serial.mfs_skips);
    EXPECT_DOUBLE_EQ(cr.result.elapsed_seconds, serial.elapsed_seconds);
    ASSERT_EQ(cr.result.found.size(), serial.found.size());
    for (std::size_t f = 0; f < serial.found.size(); ++f) {
      EXPECT_EQ(cr.result.found[f].mfs.witness, serial.found[f].mfs.witness);
      EXPECT_DOUBLE_EQ(cr.result.found[f].found_at_seconds,
                       serial.found[f].found_at_seconds);
    }
    EXPECT_EQ(cr.cross_worker_skips, 0);
  }
}

// The one sharing semantics: threads run whole pool scopes, so a campaign
// at 2 or 4 workers prints the report and checkpoint of a single-thread
// replay of its own schedule, under both share scopes and both schedule
// policies (LPT over mixed budgets).
TEST(CampaignTest, ThreadsEqualTheSingleThreadReplayOfTheirSchedule) {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.seeds_per_cell = 3;  // 12 cells in two subsystem scopes
  config.budget.seconds = 1 * 3600.0;
  config.campaign_seed = 17;
  for (const ShareScope share : {ShareScope::kSubsystem, ShareScope::kCell}) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::kRoundRobin, SchedulePolicy::kLpt}) {
      for (const int workers : {2, 4}) {
        config.share = share;
        config.schedule = policy;
        config.budget_cycle_seconds.clear();
        if (policy == SchedulePolicy::kLpt) {
          config.budget_cycle_seconds = {2 * 3600.0, 1 * 3600.0, 1800.0};
        }
        config.workers = workers;
        const CampaignResult threaded = Campaign(config).run();
        CampaignConfig single = config;
        single.workers = 1;
        single.replay = threaded.schedule;
        const CampaignResult replayed = Campaign(single).run();

        const std::string what = std::string(to_string(share)) + " share, " +
                                 to_string(policy) + ", " +
                                 std::to_string(workers) + " workers";
        EXPECT_EQ(build_report(threaded).to_json(),
                  build_report(replayed).to_json())
            << what;
        EXPECT_EQ(make_checkpoint(threaded).to_json(),
                  make_checkpoint(replayed).to_json())
            << what;
        // Every cell ran as a logical worker, and the timelines add up.
        double serial_sum = 0.0;
        for (const CellResult& cr : threaded.cells) {
          EXPECT_GE(cr.worker, 0) << what;
          EXPECT_GT(cr.result.experiments, 0) << what;
          serial_sum += cr.result.elapsed_seconds;
        }
        EXPECT_DOUBLE_EQ(threaded.serial_seconds, serial_sum) << what;
        EXPECT_LT(threaded.makespan_seconds, threaded.serial_seconds) << what;
        EXPECT_GE(threaded.pool.hits, threaded.pool.cross_worker_hits) << what;
        EXPECT_EQ(threaded.pool.cross_worker_hits > 0,
                  share == ShareScope::kSubsystem)
            << what;
      }
    }
  }
}

TEST(CampaignTest, DeterministicSharedCampaignIsReproducible) {
  CampaignConfig config = small_campaign_config();
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.workers = 2;
  config.share = ShareScope::kSubsystem;

  const CampaignResult a = Campaign(config).run();
  const CampaignResult b = Campaign(config).run();
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].result.experiments, b.cells[i].result.experiments);
    EXPECT_EQ(a.cells[i].result.found.size(), b.cells[i].result.found.size());
    EXPECT_EQ(a.cells[i].cross_worker_skips, b.cells[i].cross_worker_skips);
  }
  EXPECT_EQ(a.pool.cross_worker_hits, b.pool.cross_worker_hits);
}

// Ground-truth anomaly identity of every discovery, per subsystem — the
// same labeling the figure benches use (bench/harness.h).  "Deduped anomaly
// set" below means this: distinct catalogued anomalies, not raw MFS regions
// (one true anomaly yields many overlapping regions across runs).
std::map<char, std::set<int>> catalog_id_sets(const CampaignResult& result) {
  std::map<char, std::set<int>> out;
  for (const CellResult& cr : result.cells) {
    const std::string chip = sim::subsystem(cr.cell.subsystem).nicm.chip;
    for (const core::FoundAnomaly& f : cr.result.found) {
      const int id =
          catalog::identify(chip, cr.cell.fabric, f.mfs.witness, f.dominant,
                            catalog::to_catalog(f.mfs.symptom));
      if (id != 0) out[cr.cell.subsystem].insert(id);
    }
  }
  return out;
}

// The satellite requirement: on subsystems B and F, a 2-worker campaign with
// a shared MFS pool loses no anomaly that independent serial runs of the
// same cells find, and the sharing shows up as cross-worker skips.
// Threads run whole pool scopes, so every run is schedule-proof.
// Per-seed equality of the two anomaly sets is not a law: a shared pool
// prunes regions, so one seed's campaign can miss or add a neighbouring
// anomaly.  Over campaign seeds 1-12 the sets matched exactly for one seed
// under either jitter model.  So the check runs all twelve seeds and
// compares what sharing could lose: every anomaly the serial runs find
// on some seed, the shared campaigns find on some seed too.
TEST(CampaignTest, TwoWorkerSharedPoolLosesNoSerialAnomaly) {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.budget.seconds = 8 * 3600.0;
  config.workers = 2;

  std::map<char, std::set<int>> shared_ids;
  std::map<char, std::set<int>> serial_ids;
  for (u64 seed = 1; seed <= 12; ++seed) {
    config.campaign_seed = seed;
    config.share = ShareScope::kSubsystem;
    const CampaignResult shared = Campaign(config).run();
    config.share = ShareScope::kCell;  // serial semantics: private stores
    const CampaignResult serial = Campaign(config).run();

    // Cross-worker pruning happened...
    EXPECT_GE(shared.total_cross_worker_skips(), 1) << "seed " << seed;
    EXPECT_GE(shared.pool.cross_worker_hits, 1) << "seed " << seed;
    EXPECT_EQ(serial.total_cross_worker_skips(), 0) << "seed " << seed;
    EXPECT_GT(build_report(shared).total_experiments, 0) << "seed " << seed;
    EXPECT_GT(build_report(serial).total_experiments, 0) << "seed " << seed;

    for (const auto& [sys, ids] : catalog_id_sets(shared)) {
      shared_ids[sys].insert(ids.begin(), ids.end());
    }
    for (const auto& [sys, ids] : catalog_id_sets(serial)) {
      serial_ids[sys].insert(ids.begin(), ids.end());
    }
  }

  // ...and the shared campaigns still find every anomaly the serial runs
  // find, on both subsystems.
  for (const char sys : {'B', 'F'}) {
    ASSERT_FALSE(serial_ids[sys].empty()) << sys;
    for (const int id : serial_ids[sys]) {
      EXPECT_EQ(shared_ids[sys].count(id), 1u)
          << "subsystem " << sys << ": anomaly " << id
          << " found only without sharing";
    }
  }
}

TEST(CampaignTest, SpeedupAccountsSimulatedMakespan) {
  CampaignConfig config = small_campaign_config();
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.workers = 2;
  config.share = ShareScope::kCell;
  config.budget.seconds = 1 * 3600.0;

  const CampaignResult result = Campaign(config).run();
  ASSERT_EQ(result.cells.size(), 4u);
  // Four equal-budget cells over two workers: close to 2x.
  EXPECT_GE(result.speedup(), 1.7);
  EXPECT_LE(result.speedup(), 2.3);
  EXPECT_GT(result.makespan_seconds, 0.0);
  EXPECT_LT(result.makespan_seconds, result.serial_seconds);
}

// ---- Warm start & pool persistence ------------------------------------------

TEST(ConcurrentMfsPoolTest, WarmEntriesAreAttributedToThePreviousCampaign) {
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(31);
  const Workload w = space.random_point(rng);

  ConcurrentMfsPool pool;
  pool.load_scope("F", {cover_all_mfs(core::Symptom::kPauseFrames)});
  EXPECT_EQ(pool.stats().entries, 1);
  EXPECT_EQ(pool.stats().warm_entries, 1);

  // A hit on a loaded entry is a warm hit, never a cross-worker one.
  ConcurrentMfsPool::View view = pool.view("F", /*worker=*/0);
  EXPECT_TRUE(view.covers(space, w));
  EXPECT_EQ(view.warm_hits(), 1);
  EXPECT_EQ(view.cross_worker_hits(), 0);
  EXPECT_EQ(pool.stats().warm_hits, 1);
  EXPECT_EQ(pool.stats().cross_worker_hits, 0);

  // covers_preloaded sees loaded entries only: a fresh insert by another
  // worker does not pre-load anything.
  ConcurrentMfsPool other;
  other.insert("F", space, cover_all_mfs(core::Symptom::kPauseFrames), 1);
  ConcurrentMfsPool::View other_view = other.view("F", /*worker=*/0);
  EXPECT_FALSE(other_view.covers_preloaded(space, w));
  EXPECT_TRUE(view.covers_preloaded(space, w));
}

// The tentpole acceptance, pathological half: when the loaded regions cover
// the entire space, a warm-started campaign performs literally zero probes —
// every sampled candidate is a MatchMFS skip and the run ends as explained.
TEST(CampaignTest, WarmStartSpendsZeroProbesInsideLoadedRegions) {
  for (const Strategy strategy :
       {Strategy::kSimulatedAnnealing, Strategy::kRandom}) {
    CampaignConfig config;
    config.subsystems = {'B'};
    config.modes = {core::GuidanceMode::kDiag};
    config.strategy = strategy;
    config.budget.seconds = 2 * 3600.0;
    config.workers = 1;
    CampaignCheckpoint warm;
    warm.scopes["B"] = {cover_all_mfs(core::Symptom::kPauseFrames)};
    config.warm_start = warm;

    const CampaignResult result = Campaign(config).run();
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_FALSE(result.cells[0].skipped);  // the cell ran...
    EXPECT_EQ(result.cells[0].result.experiments, 0)
        << to_string(strategy) << " probed inside a loaded region";
    EXPECT_GT(result.cells[0].result.mfs_skips, 0) << to_string(strategy);
    EXPECT_GT(result.cells[0].warm_start_skips, 0) << to_string(strategy);
    EXPECT_TRUE(result.cells[0].result.found.empty());
    EXPECT_EQ(result.pool.warm_entries, 1);
    EXPECT_GT(result.pool.warm_hits, 0);
  }
}

// The tentpole acceptance, realistic half: checkpoint a campaign, re-run it
// warm-started with an extra seed.  The completed cell is skipped outright
// (own `skipped` column, not covered), the fresh cell searches with the
// loaded regions armed, and nothing it probes falls inside one — pinned
// structurally: every new witness was measured, so MatchMFS must have
// declined it, so no loaded MFS may cover it.
TEST(CampaignTest, WarmStartedCampaignSkipsYesterdaysRegionsAndCells) {
  CampaignConfig config;
  config.subsystems = {'B'};
  config.modes = {core::GuidanceMode::kDiag};
  config.budget.seconds = 6 * 3600.0;
  config.campaign_seed = 17;
  config.workers = 1;
  config.share = ShareScope::kSubsystem;

  const CampaignResult stage1 = Campaign(config).run();
  ASSERT_EQ(stage1.cells.size(), 1u);
  ASSERT_FALSE(stage1.cells[0].result.found.empty())
      << "stage 1 found nothing; the warm-start assertions would be vacuous";
  const CampaignCheckpoint ck_written = make_checkpoint(stage1);
  ASSERT_FALSE(ck_written.scopes.at("B").empty());
  EXPECT_EQ(ck_written.completed_cells,
            std::vector<std::string>{"B/Diag#0"});
  // Persist through JSON, as the CLI does.
  const CampaignCheckpoint ck =
      CampaignCheckpoint::from_json(ck_written.to_json());

  // Identical re-run from the checkpoint: everything is skipped, zero
  // experiments ("zero re-probes", the CI smoke in test form).
  CampaignConfig rerun = config;
  rerun.warm_start = ck;
  const CampaignResult replayed = Campaign(rerun).run();
  ASSERT_EQ(replayed.cells.size(), 1u);
  EXPECT_TRUE(replayed.cells[0].skipped);
  EXPECT_EQ(replayed.cells[0].result.experiments, 0);
  const CampaignReport rerun_report = build_report(replayed);
  EXPECT_EQ(rerun_report.total_experiments, 0);
  ASSERT_EQ(rerun_report.coverage.size(), 1u);
  EXPECT_EQ(rerun_report.coverage[0].cells, 0);
  EXPECT_EQ(rerun_report.coverage[0].skipped_cells, 1);
  // A skipped cell stays completed in the next checkpoint (resumability).
  EXPECT_TRUE(make_checkpoint(replayed).completed("B/Diag#0"));

  // A checkpoint only loads under the sharing policy it was taken with:
  // cell-scoped keys would never be queried by subsystem-share views.
  CampaignConfig wrong_share = config;
  wrong_share.share = ShareScope::kCell;
  wrong_share.warm_start = ck;
  EXPECT_THROW(Campaign(wrong_share).run(), std::invalid_argument);

  // Grown grid: the new seed runs against the loaded regions.
  CampaignConfig stage2 = config;
  stage2.seeds_per_cell = 2;
  stage2.warm_start = ck;
  const CampaignResult result2 = Campaign(stage2).run();
  ASSERT_EQ(result2.cells.size(), 2u);
  EXPECT_TRUE(result2.cells[0].skipped);
  EXPECT_FALSE(result2.cells[1].skipped);
  EXPECT_GT(result2.cells[1].result.experiments, 0);
  EXPECT_EQ(result2.pool.warm_entries,
            static_cast<i64>(ck.scopes.at("B").size()));

  const core::SearchSpace space(sim::subsystem('B'));
  for (const core::FoundAnomaly& f : result2.cells[1].result.found) {
    for (const core::Mfs& loaded : ck.scopes.at("B")) {
      EXPECT_FALSE(loaded.matches(space, f.mfs.witness))
          << "stage 2 re-explained a loaded region";
    }
  }

  const CampaignReport report2 = build_report(result2);
  ASSERT_EQ(report2.coverage.size(), 1u);
  EXPECT_EQ(report2.coverage[0].cells, 1);
  EXPECT_EQ(report2.coverage[0].skipped_cells, 1);
  EXPECT_EQ(report2.coverage[0].failed_cells, 0);
  EXPECT_NE(report2.render().find("skipped"), std::string::npos);
  EXPECT_NE(report2.to_json().find("\"skipped_cells\":1"), std::string::npos);
  if (result2.pool.warm_hits > 0) {
    EXPECT_NE(report2.render().find("warm start:"), std::string::npos);
  }
}

// Regression for the coverage fix: a warm-start-skipped cell must appear in
// `skipped`, never inflate `covered`, and contribute no experiments/time.
TEST(CampaignReportTest, SkippedCellsDoNotInflateCoverage) {
  CampaignResult result;
  CellResult ran;
  ran.cell.subsystem = 'B';
  ran.worker = 0;
  ran.result.experiments = 10;
  ran.result.elapsed_seconds = 600.0;
  result.cells.push_back(ran);
  CellResult skipped;
  skipped.cell.subsystem = 'B';
  skipped.cell.seed_ordinal = 1;
  skipped.skipped = true;
  result.cells.push_back(skipped);

  const CampaignReport report = build_report(result);
  ASSERT_EQ(report.coverage.size(), 1u);
  EXPECT_EQ(report.coverage[0].cells, 1);
  EXPECT_EQ(report.coverage[0].skipped_cells, 1);
  EXPECT_EQ(report.coverage[0].failed_cells, 0);
  EXPECT_EQ(report.coverage[0].experiments, 10);
  EXPECT_EQ(report.total_experiments, 10);
  EXPECT_DOUBLE_EQ(report.coverage[0].elapsed_seconds, 600.0);
}

// ---- Scheduling: LPT, work stealing, replay ---------------------------------

// The satellite requirement: on a pinned mixed-budget grid, LPT beats
// round-robin makespan, while per-cell results stay bit-identical (under
// cell scopes a cell's trajectory does not depend on its schedule).
TEST(CampaignTest, LptBeatsRoundRobinOnMixedBudgetGrid) {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag};
  config.seeds_per_cell = 3;                          // 6 cells
  config.budget_cycle_seconds = {4 * 3600.0, 1 * 3600.0};
  config.campaign_seed = 17;
  config.workers = 2;
  config.share = ShareScope::kCell;

  config.schedule = SchedulePolicy::kRoundRobin;
  const CampaignResult rr = Campaign(config).run();
  config.schedule = SchedulePolicy::kLpt;
  const CampaignResult lpt = Campaign(config).run();

  // Same cells, same per-cell trajectories — only the packing differs.
  ASSERT_EQ(rr.cells.size(), 6u);
  ASSERT_EQ(lpt.cells.size(), 6u);
  EXPECT_DOUBLE_EQ(rr.serial_seconds, lpt.serial_seconds);
  for (std::size_t i = 0; i < rr.cells.size(); ++i) {
    EXPECT_EQ(rr.cells[i].result.experiments,
              lpt.cells[i].result.experiments);
    EXPECT_DOUBLE_EQ(rr.cells[i].result.elapsed_seconds,
                     lpt.cells[i].result.elapsed_seconds);
  }

  // Round-robin stacks the three 4-hour cells (plan indices 0, 2, 4) onto
  // worker 0 for a ~12 h makespan; LPT packs them ~8 h.
  EXPECT_GT(rr.makespan_seconds, 11 * 3600.0);
  EXPECT_LT(lpt.makespan_seconds, 9 * 3600.0);
  EXPECT_GT(rr.makespan_seconds, 1.3 * lpt.makespan_seconds);
  EXPECT_EQ(lpt.schedule.queues[0], (std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(lpt.schedule.queues[1], (std::vector<std::size_t>{2, 1, 3, 5}));
}

// The determinism satellite: record a steal schedule once, then replay it at
// 1/2/4 physical workers — the CampaignReport JSON is bit-for-bit identical
// every time (golden rows).
TEST(CampaignTest, ReplayIsBitForBitIdenticalAcrossWorkerCounts) {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag};
  config.seeds_per_cell = 2;                          // 4 cells
  config.budget_cycle_seconds = {2 * 3600.0, 1 * 3600.0};
  config.campaign_seed = 17;
  config.workers = 3;
  config.share = ShareScope::kCell;
  config.schedule = SchedulePolicy::kLpt;

  Campaign recorder(config);
  const CampaignResult recorded = recorder.run();
  const CampaignReport golden = build_report(recorded);
  const std::string golden_json = golden.to_json();
  EXPECT_NE(golden_json.find("\"workers\":3"), std::string::npos);

  // The schedule survives its JSON round trip (what --replay reloads).
  std::vector<std::string> labels;
  std::vector<double> budgets;
  for (const auto& cell : recorder.plan()) {
    labels.push_back(cell.label());
    budgets.push_back(cell.budget_seconds);
  }
  const Schedule reloaded = schedule_from_json(
      schedule_to_json(recorded.schedule, labels, budgets));

  for (const int physical_workers : {1, 2, 4}) {
    CampaignConfig replay_config = config;
    replay_config.workers = physical_workers;
    replay_config.replay = reloaded;
    const CampaignResult replayed = Campaign(replay_config).run();
    EXPECT_EQ(replayed.workers, 3);  // logical workers from the schedule
    EXPECT_EQ(build_report(replayed).to_json(), golden_json)
        << "replay diverged at " << physical_workers << " workers";
  }

  // A schedule recorded against a different plan is rejected loudly.
  CampaignConfig drifted = config;
  drifted.seeds_per_cell = 3;
  drifted.replay = reloaded;
  EXPECT_THROW(Campaign(drifted).run(), std::invalid_argument);

  // ...and so is one recorded under different budgets: same labels, but
  // silently re-dispatching under new --hours would void the bit-for-bit
  // promise.
  CampaignConfig rebudgeted = config;
  rebudgeted.budget_cycle_seconds = {3 * 3600.0, 1 * 3600.0};
  rebudgeted.replay = reloaded;
  EXPECT_THROW(Campaign(rebudgeted).run(), std::invalid_argument);
}

// ---- CampaignReport ---------------------------------------------------------

TEST(CampaignReportTest, DedupesCollapseRepeatDiscoveries) {
  CampaignConfig config = small_campaign_config();
  config.subsystems = {'F'};
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.workers = 2;
  config.share = ShareScope::kSubsystem;
  config.budget.seconds = 4 * 3600.0;

  const CampaignResult result = Campaign(config).run();
  const CampaignReport report = build_report(result);

  int raw_found = 0;
  for (const CellResult& cr : result.cells) {
    raw_found += static_cast<int>(cr.result.found.size());
  }
  int occurrences = 0;
  for (const DedupedAnomaly& a : report.anomalies) {
    occurrences += a.occurrences;
    EXPECT_EQ(a.subsystem, 'F');
    EXPECT_NE(a.symptom, core::Symptom::kNone);
    EXPECT_GE(a.occurrences, 1);
  }
  EXPECT_EQ(occurrences, raw_found);
  EXPECT_LE(static_cast<int>(report.anomalies.size()), raw_found);
  ASSERT_EQ(report.coverage.size(), 1u);
  EXPECT_EQ(report.coverage[0].anomalies_found, raw_found);
  EXPECT_EQ(report.coverage[0].distinct_anomalies,
            static_cast<int>(report.anomalies.size()));
}

TEST(CampaignReportTest, RenderAndJsonCarryTheSummary) {
  CampaignConfig config = small_campaign_config();
  config.workers = 2;
  config.budget.seconds = 1 * 3600.0;

  const CampaignResult result = Campaign(config).run();
  const CampaignReport report = build_report(result);

  const std::string text = report.render();
  EXPECT_NE(text.find("Per-subsystem coverage"), std::string::npos);
  EXPECT_NE(text.find("speedup"), std::string::npos);
  EXPECT_NE(text.find("shared MFS pool"), std::string::npos);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"anomalies\""), std::string::npos);
  // Structural well-formedness: no value string in this document contains
  // brackets, so a container-close immediately followed by a quote means a
  // missing separator (the JsonWriter regression that made campaign --json
  // unparseable).
  EXPECT_EQ(json.find("]\""), std::string::npos);
  EXPECT_EQ(json.find("}\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(CampaignReportTest, AggregateTraceIsMergedAndOrdered) {
  CampaignConfig config = small_campaign_config();
  config.workers = 2;
  config.budget.seconds = 1 * 3600.0;

  const CampaignResult result = Campaign(config).run();
  const auto trace = aggregate_trace(result);

  std::size_t expected = 0;
  for (const CellResult& cr : result.cells) expected += cr.result.trace.size();
  EXPECT_EQ(trace.size(), expected);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].t_seconds, trace[i].t_seconds);
  }
  const std::string csv = aggregate_trace_csv(result);
  EXPECT_NE(csv.find("t_seconds,worker,cell"), std::string::npos);
}

TEST(CampaignReportTest, AggregateTraceEmptyResultIsHeaderOnly) {
  const CampaignResult empty;
  EXPECT_TRUE(aggregate_trace(empty).empty());
  const std::string csv = aggregate_trace_csv(empty);
  EXPECT_EQ(csv,
            "t_seconds,worker,cell,counter_value,anomaly_found,"
            "in_mfs_extraction\n");
}

// Synthetic cell results exercising the merge directly: points from
// different cells interleave on the campaign timeline, and equal timestamps
// order by worker id regardless of cell insertion order.
TEST(CampaignReportTest, AggregateTraceMergesCellsAndTieBreaksByWorker) {
  CampaignResult result;
  CellResult late;
  late.cell.subsystem = 'B';
  late.worker = 3;
  late.start_seconds = 10.0;
  late.result.trace.push_back({5.0, 1.0, 0.0, false, false});  // t = 15
  late.result.trace.push_back({10.0, 2.0, 0.0, false, false});  // t = 20
  CellResult early;
  early.cell.subsystem = 'F';
  early.worker = 1;
  early.start_seconds = 0.0;
  early.result.trace.push_back({5.0, 3.0, 0.0, false, false});  // t = 5
  early.result.trace.push_back({15.0, 4.0, 0.0, false, false});  // t = 15
  result.cells.push_back(std::move(late));  // inserted before `early`
  result.cells.push_back(std::move(early));

  const auto trace = aggregate_trace(result);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_DOUBLE_EQ(trace[0].t_seconds, 5.0);
  EXPECT_EQ(trace[0].worker, 1);
  // The t=15 tie orders worker 1 before worker 3.
  EXPECT_DOUBLE_EQ(trace[1].t_seconds, 15.0);
  EXPECT_EQ(trace[1].worker, 1);
  EXPECT_DOUBLE_EQ(trace[2].t_seconds, 15.0);
  EXPECT_EQ(trace[2].worker, 3);
  EXPECT_DOUBLE_EQ(trace[3].t_seconds, 20.0);
  EXPECT_EQ(trace[3].worker, 3);
  EXPECT_EQ(trace[0].cell, "F/Diag#0");
}

TEST(CampaignReportTest, AggregateTraceCsvEscapesLabels) {
  // A fabric name with a comma and a quote lands in the cell label; the CSV
  // field must be RFC-4180 quoted (internal quotes doubled) so the row
  // keeps its column count.
  CampaignResult result;
  CellResult cr;
  cr.cell.subsystem = 'B';
  cr.cell.fabric = "we,ird\"net";
  cr.worker = 0;
  cr.result.trace.push_back({1.0, 2.0, 0.0, true, false});
  result.cells.push_back(std::move(cr));

  const std::string csv = aggregate_trace_csv(result);
  EXPECT_NE(csv.find("\"B@we,ird\"\"net/Diag#0\""), std::string::npos);
  // Exactly header + one data row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  // The data row still has 5 commas outside the quoted field... which is
  // easiest to check by splitting on the quoted label.
  const std::size_t open = csv.find('"');
  const std::size_t close = csv.rfind('"');
  ASSERT_NE(open, std::string::npos);
  const std::size_t row_start = csv.find('\n') + 1;
  const std::string before = csv.substr(row_start, open - row_start);
  const std::string after = csv.substr(close + 1);
  EXPECT_EQ(std::count(before.begin(), before.end(), ','), 2);
  EXPECT_EQ(std::count(after.begin(), after.end(), ','), 3);
}

// ---- Telemetry threading ---------------------------------------------------

TEST(CampaignTest, TelemetryDoesNotPerturbTheReport) {
  // The acceptance bar for the obs layer: a campaign with telemetry
  // attached produces a bit-identical report (metrics live in a separate
  // snapshot, never in the report JSON by default), and the counters agree
  // with the report's own totals.
  CampaignConfig config = small_campaign_config();
  config.workers = 2;
  config.share = ShareScope::kSubsystem;

  const CampaignResult plain = Campaign(config).run();

  obs::TelemetryOptions topts;
  topts.workers = config.workers;
  obs::Telemetry telemetry(topts);
  config.telemetry = &telemetry;
  const CampaignResult instrumented = Campaign(config).run();

  const std::string plain_json = build_report(plain).to_json();
  const CampaignReport report = build_report(instrumented);
  EXPECT_EQ(report.to_json(), plain_json);

  const obs::Snapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.counters.at("probe.experiments"),
            static_cast<i64>(report.total_experiments));
  EXPECT_EQ(snap.counters.at("campaign.cells_completed"),
            static_cast<i64>(instrumented.cells.size()));
  EXPECT_GT(snap.histograms.at("engine.eval_ns").count, 0u);
  // Pool traffic was attributed (covers misses at minimum).
  EXPECT_GT(snap.counters.at("pool.misses"), 0);
  // The report embeds the snapshot only when asked.
  const std::string with_metrics = report.to_json(&snap);
  EXPECT_NE(with_metrics, plain_json);
  EXPECT_NE(with_metrics.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(plain_json.find("\"metrics\""), std::string::npos);
  // The embedded document still parses as a report.
  const CampaignReport back = campaign_report_from_json(with_metrics);
  EXPECT_EQ(back.total_experiments, report.total_experiments);
}

// ---- Durable journal & crash resume -----------------------------------------

std::string journal_tmp(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "collie_orch_journal_" + name;
  std::remove(path.c_str());
  std::remove((path + ".torn").c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

CampaignConfig journaled_campaign_config() {
  CampaignConfig config;
  config.subsystems = {'B', 'F'};
  config.modes = {core::GuidanceMode::kDiag};
  config.seeds_per_cell = 2;  // 4 cells
  config.budget.seconds = 0.3 * 3600.0;
  config.campaign_seed = 17;
  config.workers = 2;
  config.share = ShareScope::kCell;
  return config;
}

struct JournaledRun {
  CampaignResult result;
  std::string report_json;
  i64 replayed = 0;  // probes served from the journaled prefix
  i64 live = 0;      // probes executed on the real substrate
};

// Run `config` journaling into `path` (appending when the file already
// holds a valid prefix), optionally resuming from parsed journal state —
// exactly the wiring the campaign CLI does for --journal / --resume.
JournaledRun run_journaled(
    CampaignConfig config, const std::string& path,
    const JournalResume* resume,
    std::shared_ptr<workload::BackendFactory> inner = nullptr) {
  CampaignJournal journal(path, /*journal_every=*/4);
  auto splice = std::make_shared<SpliceBackendFactory>(std::move(inner),
                                                       resume, &journal);
  config.journal = &journal;
  config.resume = resume;
  if (resume != nullptr) config.replay = resume->schedule;
  config.backend_factory = splice;
  JournaledRun out;
  out.result = Campaign(config).run();
  out.report_json = build_report(out.result).to_json();
  out.replayed = splice->replayed();
  out.live = splice->live();
  return out;
}

i64 total_experiments(const CampaignResult& result) {
  i64 total = 0;
  for (const CellResult& cr : result.cells) total += cr.result.experiments;
  return total;
}

// Journaling is pure observation: a journaled campaign's report is
// byte-identical to the plain run's, every executed probe was journaled
// live (none replayed), and the journal parses back into a fully completed
// resume state.
TEST(CampaignJournalTest, JournalingNeverPerturbsTheReport) {
  const CampaignConfig config = journaled_campaign_config();
  const std::string golden = build_report(Campaign(config).run()).to_json();

  const std::string path = journal_tmp("perturb.journal");
  const JournaledRun run = run_journaled(config, path, nullptr);
  EXPECT_EQ(run.report_json, golden);
  EXPECT_EQ(run.replayed, 0);
  EXPECT_EQ(run.live, total_experiments(run.result));

  const JournalRecovery rec = recover_journal(path, /*repair=*/false);
  ASSERT_FALSE(rec.torn);
  const JournalResume resume = parse_journal(rec.payloads);
  EXPECT_TRUE(resume.has_begin);
  EXPECT_EQ(resume.share, "cell");
  EXPECT_EQ(resume.completed.size(), run.result.cells.size());
  // Every probe stays recorded under its cell: the journal is a recording.
  for (const CellResult& cr : run.result.cells) {
    const auto it = resume.recorded.find(cr.cell.label());
    ASSERT_NE(it, resume.recorded.end()) << cr.cell.label();
    EXPECT_EQ(static_cast<i64>(it->second.size()), cr.result.experiments);
  }
  EXPECT_EQ(resume.probes, run.live);
  std::remove(path.c_str());
}

// The simulator, logging each probe's request per cell context.
class RequestLoggingFactory final : public workload::BackendFactory {
 public:
  workload::BackendKind kind() const override {
    return workload::BackendKind::kMock;
  }
  const std::string& substrate() const override { return sim_.substrate(); }
  std::unique_ptr<workload::Backend> create(
      const sim::Subsystem& sys, const workload::EngineOptions& opts,
      const std::string& context) override {
    std::lock_guard<std::mutex> lock(mu_);
    return std::make_unique<Logging>(sim_.create(sys, opts, context),
                                     &log_[context]);
  }
  const std::vector<sim::EvalRequest>& log(const std::string& context) const {
    return log_.at(context);
  }

 private:
  class Logging final : public workload::Backend {
   public:
    Logging(std::unique_ptr<workload::Backend> inner,
            std::vector<sim::EvalRequest>* log)
        : inner_(std::move(inner)), log_(log) {}
    workload::BackendKind kind() const override {
      return workload::BackendKind::kMock;
    }
    const std::string& substrate() const override {
      return inner_->substrate();
    }
    void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
                 workload::Measurement& out) override {
      log_->push_back(out.request);
      inner_->measure(w, rng, scratch, out);
    }

   private:
    std::unique_ptr<workload::Backend> inner_;
    std::vector<sim::EvalRequest>* log_;
  };

  workload::SimBackendFactory sim_;
  std::mutex mu_;
  std::map<std::string, std::vector<sim::EvalRequest>> log_;
};

// A probe record exactly as CampaignJournal::probe writes it.
std::string probe_payload(const std::string& context, const Workload& w,
                          const workload::Measurement& m,
                          const RngState& rng_after) {
  core::JsonWriter json;
  json.begin_object();
  json.field("record", "probe");
  json.field("context", context);
  json.key("workload");
  core::workload_to_json(w, &json);
  json.key("measurement");
  core::measurement_to_json(m, &json);
  json.key("rng_after");
  rng_state_to_json(rng_after, &json);
  json.end_object();
  return json.str();
}

// A probe record as builds that kept the per-epoch series wrote it: its
// measurement object ends in an (always empty) "epochs" array.
std::string with_empty_epochs(const std::string& probe_record) {
  const std::size_t at = probe_record.find("},\"rng_after\":");
  EXPECT_NE(at, std::string::npos);
  return probe_record.substr(0, at) + ",\"epochs\":[]" +
         probe_record.substr(at);
}

// Two kinds of older collie-journal-v3 recordings must still load.
// Journals recorded before search steps requested only the counters they
// read hold every diagnostic counter of every step; a current recording
// holds zero for the ones a step did not request.  Journals recorded while
// the model could keep a per-epoch series carry "epochs":[] in every probe
// record.  Record a campaign (SA Diag and Perf cells) and rewrite it twice:
// every step's unrequested counters set to nonzero values in its samples
// and average, and every probe record given the empty epochs array.
// Re-frame each and demand that an offline replay of it, and resumes from
// two cuts of it, print the plain run's report byte for byte.
TEST(CampaignJournalTest, JournalsHoldingUnrequestedCountersReplayAndResume) {
  CampaignConfig config = journaled_campaign_config();
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.budget.seconds = 2 * 3600.0;  // SA phases past the ranking probes
  const std::string golden = build_report(Campaign(config).run()).to_json();

  auto requests = std::make_shared<RequestLoggingFactory>();
  const std::string path = journal_tmp("requests.journal");
  ASSERT_EQ(run_journaled(config, path, nullptr, requests).report_json,
            golden);
  const JournalRecovery rec = recover_journal(path, /*repair=*/false);
  ASSERT_FALSE(rec.torn);

  std::vector<std::string> widened_records;
  std::vector<std::string> with_epochs;
  std::map<std::string, std::size_t> cursor;
  int widened = 0;
  int phase_steps = 0;  // Diag phase steps: one counter besides the trace's
  const sim::DiagMask trace_bit =
      sim::diag_bit(sim::DiagCounter::kRxWqeCacheMiss);
  for (const std::string& payload : rec.payloads) {
    const core::JsonValue v = core::JsonValue::parse(payload);
    const core::JsonValue* record = v.find("record");  // cell_done has none
    if (record == nullptr || record->as_string() != "probe") {
      widened_records.push_back(payload);
      with_epochs.push_back(payload);
      continue;
    }
    with_epochs.push_back(with_empty_epochs(payload));
    const std::string context = v.at("context").as_string();
    const Workload w = core::workload_from_json(v.at("workload"));
    workload::Measurement m =
        core::measurement_from_json(v.at("measurement"));
    const RngState rng_after = rng_state_from_json(v.at("rng_after"));
    ASSERT_EQ(probe_payload(context, w, m, rng_after), payload);
    const sim::EvalRequest& request =
        requests->log(context).at(cursor[context]++);
    if (!request.verdict_only && request.diag != sim::kAllDiagCounters &&
        (request.diag & ~trace_bit) != 0) {
      ++phase_steps;
    }
    if (!request.verdict_only) {
      for (int d = 0; d < sim::kNumDiagCounters; ++d) {
        if ((request.diag & sim::diag_bit(d)) != 0) continue;
        const double parent_value = 1e6 * (d + 1);
        for (sim::CounterSample& sample : m.samples) {
          sample.diag[static_cast<std::size_t>(d)] = parent_value;
        }
        m.average.diag[static_cast<std::size_t>(d)] = parent_value;
        ++widened;
      }
    }
    widened_records.push_back(probe_payload(context, w, m, rng_after));
  }
  ASSERT_GT(widened, 0);
  ASSERT_GT(phase_steps, 0);
  for (const auto& [context, n] : cursor) {
    EXPECT_EQ(n, requests->log(context).size()) << context;
  }

  const std::string cut_path = journal_tmp("requests-cut.journal");
  for (const std::vector<std::string>* payloads :
       {&widened_records, &with_epochs}) {
    const std::string tag =
        payloads == &widened_records ? "unrequested counters" : "epochs key";
    // Offline replay of the whole rewritten journal.
    const JournalResume recording = parse_journal(*payloads);
    CampaignConfig replay = config;
    replay.replay = recording.schedule;
    replay.backend_factory = journal_replay_factory(recording);
    EXPECT_EQ(build_report(Campaign(replay).run()).to_json(), golden) << tag;

    // Resume from a third and from two thirds of its records.
    for (const std::size_t k :
         {payloads->size() / 3, 2 * payloads->size() / 3}) {
      std::string cut = kJournalMagic;
      for (std::size_t i = 0; i < k; ++i) cut += journal_frame((*payloads)[i]);
      std::remove(cut_path.c_str());
      spit(cut_path, cut);
      const JournalResume resume =
          parse_journal(recover_journal(cut_path, /*repair=*/true).payloads);
      const JournaledRun resumed = run_journaled(config, cut_path, &resume);
      EXPECT_GT(resumed.replayed, 0) << tag << " cut " << k;
      EXPECT_EQ(resumed.report_json, golden) << tag << " cut " << k;
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// The tentpole acceptance, frame-boundary half: cut the journal after
// every sampled record count ("crash after the Nth journaled probe"),
// resume, and demand (a) a byte-identical report and (b) zero probes
// re-spent inside journaled regions — every journaled probe of a partial
// cell is replayed, restored cells re-execute nothing, and live probes are
// exactly the lost remainder.
TEST(CampaignJournalTest, ResumeFromEverySampledRecordPrefixIsByteIdentical) {
  const CampaignConfig config = journaled_campaign_config();
  const std::string path = journal_tmp("prefix-sweep.journal");
  const JournaledRun full = run_journaled(config, path, nullptr);
  const i64 total = total_experiments(full.result);

  const JournalRecovery rec = recover_journal(path, /*repair=*/false);
  ASSERT_FALSE(rec.torn);
  const std::size_t frames = rec.payloads.size();
  ASSERT_GT(frames, 12u);

  std::vector<std::size_t> cuts = {1, frames - 1, frames};
  for (std::size_t k = 4; k < frames; k += 7) cuts.push_back(k);
  const std::string cut_path = journal_tmp("prefix-cut.journal");
  for (const std::size_t k : cuts) {
    std::string cut = kJournalMagic;
    for (std::size_t i = 0; i < k; ++i) cut += journal_frame(rec.payloads[i]);
    std::remove(cut_path.c_str());
    spit(cut_path, cut);
    const JournalRecovery cut_rec = recover_journal(cut_path, /*repair=*/true);
    ASSERT_FALSE(cut_rec.torn) << "cut " << k;
    const JournalResume resume = parse_journal(cut_rec.payloads);
    ASSERT_TRUE(resume.has_begin) << "cut " << k;

    i64 restored = 0;
    for (const auto& [label, rc] : resume.completed) {
      (void)label;
      restored += rc.result.result.experiments;
    }
    i64 journaled_prefix = 0;  // recorded probes of incomplete cells
    for (const auto& [ctx, probes] : resume.recorded) {
      if (resume.completed.count(ctx) != 0) continue;
      journaled_prefix += static_cast<i64>(probes.size());
    }

    const JournaledRun resumed = run_journaled(config, cut_path, &resume);
    EXPECT_EQ(resumed.report_json, full.report_json) << "cut " << k;
    EXPECT_EQ(resumed.replayed, journaled_prefix) << "cut " << k;
    EXPECT_EQ(resumed.live, total - restored - journaled_prefix)
        << "cut " << k;

    // The resumed journal is append-only: it now parses as one fully
    // completed campaign with a session boundary, never a second begin.
    const JournalResume after =
        parse_journal(recover_journal(cut_path, false).payloads);
    EXPECT_EQ(after.sessions, 2) << "cut " << k;
    EXPECT_EQ(after.completed.size(), full.result.cells.size()) << "cut " << k;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// The tentpole acceptance, torn-byte half, pinned at 1/2/4 workers: kill
// the journal at arbitrary byte offsets (mid-frame tears included), let
// recovery quarantine the torn suffix, and resume to a byte-identical
// report.
TEST(CampaignJournalTest, TornByteOffsetResumeIsByteIdenticalAt124Workers) {
  for (const int workers : {1, 2, 4}) {
    CampaignConfig config = journaled_campaign_config();
    config.workers = workers;
    const std::string path =
        journal_tmp("torn-w" + std::to_string(workers) + ".journal");
    const JournaledRun full = run_journaled(config, path, nullptr);
    const std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 400u);

    const std::string cut_path =
        journal_tmp("torn-cut-w" + std::to_string(workers) + ".journal");
    for (const std::size_t cut : {bytes.size() * 3 / 10 + 1,
                                  bytes.size() * 7 / 10 + 3,
                                  bytes.size() - 5}) {
      std::remove(cut_path.c_str());
      std::remove((cut_path + ".torn").c_str());
      spit(cut_path, bytes.substr(0, cut));
      const JournalRecovery rec = recover_journal(cut_path, /*repair=*/true);
      ASSERT_TRUE(rec.existed);
      ASSERT_LE(rec.valid_bytes, cut);
      if (rec.torn) {
        // The torn suffix is quarantined byte-for-byte before resume.
        EXPECT_EQ(slurp(rec.torn_path),
                  bytes.substr(rec.valid_bytes, cut - rec.valid_bytes))
            << workers << " workers, cut " << cut;
        EXPECT_EQ(slurp(cut_path).size(), rec.valid_bytes);
      }
      const JournalResume resume = parse_journal(rec.payloads);
      ASSERT_TRUE(resume.has_begin) << workers << " workers, cut " << cut;
      const JournaledRun resumed = run_journaled(config, cut_path, &resume);
      EXPECT_EQ(resumed.report_json, full.report_json)
          << workers << " workers, cut " << cut;
    }
    std::remove(path.c_str());
    std::remove(cut_path.c_str());
    std::remove((cut_path + ".torn").c_str());
  }
}

// Cutting exactly after a cell_done frame restores that cell verbatim: the
// resumed campaign replays nothing for it, spends zero probes on it, and
// still reports byte-identically.
TEST(CampaignJournalTest, RestoredCellsShortCircuitWithZeroReplay) {
  CampaignConfig config = journaled_campaign_config();
  config.workers = 1;
  const std::string path = journal_tmp("restored.journal");
  const JournaledRun full = run_journaled(config, path, nullptr);

  const JournalRecovery rec = recover_journal(path, /*repair=*/false);
  std::size_t first_done = 0;
  for (std::size_t i = 0; i < rec.payloads.size(); ++i) {
    if (rec.payloads[i].find("\"type\":\"cell_done\"") != std::string::npos) {
      first_done = i;
      break;
    }
  }
  ASSERT_GT(first_done, 0u);

  const std::string cut_path = journal_tmp("restored-cut.journal");
  std::string cut = kJournalMagic;
  for (std::size_t i = 0; i <= first_done; ++i) {
    cut += journal_frame(rec.payloads[i]);
  }
  spit(cut_path, cut);
  const JournalResume resume =
      parse_journal(recover_journal(cut_path, true).payloads);
  ASSERT_EQ(resume.completed.size(), 1u);
  // The cut is a clean cell boundary: only the completed cell has probes.
  ASSERT_EQ(resume.recorded.size(), 1u);
  EXPECT_EQ(resume.recorded.count(resume.completion_order.front()), 1u);

  const JournaledRun resumed = run_journaled(config, cut_path, &resume);
  EXPECT_EQ(resumed.report_json, full.report_json);
  EXPECT_EQ(resumed.replayed, 0);
  const i64 restored =
      resume.completed.at(resume.completion_order.front())
          .result.result.experiments;
  EXPECT_EQ(resumed.live, total_experiments(full.result) - restored);
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// A journaled threaded campaign under subsystem sharing: two threads run
// the two subsystem scopes, so the journal interleaves their records, yet
// the pool restore in completion order keeps each scope's cells in chain
// order.  The recording equals the plain run, a crash at any byte resumes
// to the same report, and the journal replays on one thread to it too.
TEST(CampaignJournalTest, ThreadedSubsystemShareResumesAndReplaysByteIdentically) {
  CampaignConfig config = journaled_campaign_config();
  config.share = ShareScope::kSubsystem;
  config.workers = 4;
  const std::string golden = build_report(Campaign(config).run()).to_json();
  const std::string path = journal_tmp("subsys.journal");
  const JournaledRun full = run_journaled(config, path, nullptr);
  EXPECT_EQ(full.report_json, golden);

  const std::string bytes = slurp(path);
  const std::string cut_path = journal_tmp("subsys-cut.journal");
  for (const std::size_t cut : {bytes.size() * 3 / 10 + 1, bytes.size() / 2,
                                bytes.size() * 8 / 10 + 3}) {
    std::remove(cut_path.c_str());
    std::remove((cut_path + ".torn").c_str());
    spit(cut_path, bytes.substr(0, cut));
    const JournalResume resume =
        parse_journal(recover_journal(cut_path, true).payloads);
    ASSERT_TRUE(resume.has_begin) << "cut " << cut;
    const JournaledRun resumed = run_journaled(config, cut_path, &resume);
    EXPECT_EQ(resumed.report_json, golden) << "cut " << cut;
  }

  const JournalResume recording =
      parse_journal(recover_journal(path, false).payloads);
  CampaignConfig replay = config;
  replay.workers = 1;
  replay.replay = recording.schedule;
  replay.backend_factory = journal_replay_factory(recording);
  EXPECT_EQ(build_report(Campaign(replay).run()).to_json(), golden);
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
  std::remove((cut_path + ".torn").c_str());
}

// Guard rail: a journal recorded against a different plan fails loudly
// instead of resuming wrong.
TEST(CampaignJournalTest, ResumeGuardsRejectUnsoundConfigurations) {
  // Record a 4-cell journal, then try to resume a 6-cell campaign from it.
  const CampaignConfig config = journaled_campaign_config();
  const std::string rec_path = journal_tmp("guards-rec.journal");
  (void)run_journaled(config, rec_path, nullptr);
  const JournalResume resume =
      parse_journal(recover_journal(rec_path, false).payloads);
  ASSERT_FALSE(resume.completed.empty());
  CampaignConfig drifted = config;
  drifted.seeds_per_cell = 3;
  EXPECT_THROW((void)run_journaled(drifted, rec_path, &resume),
               std::invalid_argument);
  std::remove(rec_path.c_str());
}

}  // namespace
}  // namespace collie::orchestrator
