#include <gtest/gtest.h>

#include "core/search.h"
#include "sim/subsystem.h"
#include "workload/backend_sim.h"

namespace collie::core {
namespace {

class SearchTest : public ::testing::Test {
 protected:
  SearchTest()
      : engine_(sim::subsystem('F')),
        space_(sim::subsystem('F')),
        driver_(engine_, space_) {}

  workload::Engine engine_;
  SearchSpace space_;
  SearchDriver driver_;
};

TEST_F(SearchTest, RandomSearchRespectsBudget) {
  SearchBudget budget;
  budget.seconds = 30 * 60.0;  // 30 simulated minutes
  Rng rng(1);
  const SearchResult r = driver_.run_random(budget, rng);
  EXPECT_GT(r.experiments, 10);
  EXPECT_GE(r.elapsed_seconds, budget.seconds);
  // Each experiment costs at least 20 s; an in-flight MFS extraction may
  // overshoot the budget by its probe count but no more.
  EXPECT_LE(r.experiments,
            static_cast<int>(budget.seconds / 20.0) + 120);
  EXPECT_EQ(r.trace.size(), static_cast<std::size_t>(r.experiments));
}

TEST_F(SearchTest, ExperimentCapRespected) {
  SearchBudget budget;
  budget.max_experiments = 25;
  Rng rng(2);
  const SearchResult r = driver_.run_random(budget, rng);
  // MFS extraction completes atomically once an anomaly is found, so the
  // cap may be exceeded by one extraction's probes at most.
  EXPECT_LE(r.experiments, 25 + 120);
}

TEST_F(SearchTest, DeterministicGivenSeed) {
  SearchBudget budget;
  budget.seconds = 20 * 60.0;
  Rng rng1(7);
  Rng rng2(7);
  const SearchResult a = driver_.run_random(budget, rng1);
  const SearchResult b = driver_.run_random(budget, rng2);
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.found.size(), b.found.size());
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

TEST_F(SearchTest, SaFindsAnomaliesWithinHours) {
  SaConfig cfg;
  cfg.mode = GuidanceMode::kDiag;
  SearchBudget budget;
  budget.seconds = 3 * 3600.0;
  Rng rng(3);
  const SearchResult r = driver_.run_simulated_annealing(cfg, budget, rng);
  EXPECT_GE(r.found.size(), 2u);
  // Discovery times are recorded and monotone.
  double prev = 0.0;
  for (const auto& f : r.found) {
    EXPECT_GE(f.found_at_seconds, prev);
    prev = f.found_at_seconds;
    EXPECT_TRUE(f.verdict.anomalous());
  }
}

// With default EngineOptions every probe is measured on the backend, so
// each discovery carries the mechanism that produced it.  An engine that
// answered illegal workloads (message larger than the MR) with a
// zero-traffic measurement reported most of these runs' anomalies with
// mechanism kNone: 7 of 8 on B and 6 of 8 on F.
TEST(SearchDefaultEngine, SaAnomaliesAllHaveAMechanism) {
  for (const char sys_id : {'B', 'F'}) {
    const workload::Engine engine(sim::subsystem(sys_id));
    const SearchSpace space(sim::subsystem(sys_id));
    SearchDriver driver(engine, space);
    SearchBudget budget;
    budget.seconds = 2 * 3600.0;
    Rng rng(1);
    const SearchResult r =
        driver.run_simulated_annealing(SaConfig{}, budget, rng);
    EXPECT_FALSE(r.found.empty()) << sys_id;
    for (const FoundAnomaly& f : r.found) {
      EXPECT_NE(f.dominant, sim::Bottleneck::kNone)
          << sys_id << ": " << f.mfs.witness.describe();
    }
  }
}

TEST_F(SearchTest, MfsSkipsAvoidRedundantExperiments) {
  SaConfig cfg;
  cfg.mode = GuidanceMode::kDiag;
  SearchBudget budget;
  budget.seconds = 4 * 3600.0;
  Rng rng(5);
  const SearchResult with_mfs =
      driver_.run_simulated_annealing(cfg, budget, rng);
  // With several anomalies found, later mutations into their regions must
  // be pruned by MatchMFS at least occasionally.
  if (with_mfs.found.size() >= 3) {
    EXPECT_GT(with_mfs.mfs_skips, 0);
  }
  // Every found anomaly carries a non-trivial MFS.
  for (const auto& f : with_mfs.found) {
    EXPECT_FALSE(f.mfs.conditions.empty());
  }
}

TEST_F(SearchTest, NoMfsVariantRecordsBareWitnesses) {
  SaConfig cfg;
  cfg.mode = GuidanceMode::kDiag;
  cfg.use_mfs = false;
  SearchBudget budget;
  budget.seconds = 1 * 3600.0;
  Rng rng(5);
  const SearchResult r = driver_.run_simulated_annealing(cfg, budget, rng);
  EXPECT_EQ(r.mfs_skips, 0);
  for (const auto& f : r.found) {
    EXPECT_TRUE(f.mfs.conditions.empty());
  }
}

TEST_F(SearchTest, TraceMarksMfsExtraction) {
  SaConfig cfg;
  cfg.mode = GuidanceMode::kDiag;
  SearchBudget budget;
  budget.seconds = 2 * 3600.0;
  Rng rng(9);
  const SearchResult r = driver_.run_simulated_annealing(cfg, budget, rng);
  if (!r.found.empty()) {
    bool saw_flat = false;
    for (const auto& tp : r.trace) {
      if (tp.in_mfs_extraction) saw_flat = true;
    }
    EXPECT_TRUE(saw_flat);
  }
}

TEST_F(SearchTest, PerfModeRunsAndGuides) {
  SaConfig cfg;
  cfg.mode = GuidanceMode::kPerf;
  SearchBudget budget;
  budget.seconds = 1 * 3600.0;
  Rng rng(11);
  const SearchResult r = driver_.run_simulated_annealing(cfg, budget, rng);
  EXPECT_GT(r.experiments, 20);
}

// The reference for the compiled hot path: SimBackend's measure loop
// (evaluate, then apply_result's stability rule, one re-measurement) over
// the per-call sim::evaluate, which rebuilds the scenario on every probe.
// It ignores verdict-only requests and measures every MFS necessity probe
// in full, so matching trajectories also pin verdict-only ≡ full at the
// search level.
class UncompiledBackend final : public workload::Backend {
 public:
  UncompiledBackend(const sim::Subsystem& sys, const sim::SimConfig& cfg)
      : sys_(sys), cfg_(cfg) {}

  // Not kSim: the engine's direct call is reserved for SimBackend itself.
  workload::BackendKind kind() const override {
    return workload::BackendKind::kMock;
  }
  const std::string& substrate() const override { return substrate_; }
  void measure(const Workload& w, Rng& rng, sim::EvalScratch&,
               workload::Measurement& m) override {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (workload::apply_result(sim::evaluate(sys_, w, rng, cfg_), m)) break;
    }
  }

 private:
  sim::Subsystem sys_;
  sim::SimConfig cfg_;
  std::string substrate_ = "sim";
};

class UncompiledBackendFactory final : public workload::BackendFactory {
 public:
  workload::BackendKind kind() const override {
    return workload::BackendKind::kMock;
  }
  const std::string& substrate() const override { return substrate_; }
  std::unique_ptr<workload::Backend> create(
      const sim::Subsystem& sys, const workload::EngineOptions& opts,
      const std::string&) override {
    return std::make_unique<UncompiledBackend>(sys, opts.sim);
  }

 private:
  std::string substrate_ = "sim";
};

// Seed-trajectory pin for the evaluation hot path: the same search driven
// through the compiled-scenario engine and the uncompiled per-call
// reference must be indistinguishable — experiment for experiment, trace
// value for trace value, witness for witness.  This is the search-level
// half of the bit-exactness contract (the golden rows are the single-probe
// half).
TEST_F(SearchTest, CompiledEngineReproducesUncompiledTrajectoriesExactly) {
  UncompiledBackendFactory reference;
  workload::EngineOptions uncompiled_opts;
  uncompiled_opts.backend_factory = &reference;
  const workload::Engine uncompiled(sim::subsystem('F'), uncompiled_opts);
  ASSERT_EQ(uncompiled.backend().kind(), workload::BackendKind::kMock);
  SearchDriver uncompiled_driver(uncompiled, space_);

  SaConfig cfg;
  cfg.mode = GuidanceMode::kDiag;
  SearchBudget budget;
  budget.seconds = 2 * 3600.0;
  Rng rng_hot(13);
  Rng rng_ref(13);
  const SearchResult hot =
      driver_.run_simulated_annealing(cfg, budget, rng_hot);
  const SearchResult ref =
      uncompiled_driver.run_simulated_annealing(cfg, budget, rng_ref);
  ASSERT_EQ(hot.experiments, ref.experiments);
  EXPECT_EQ(hot.mfs_skips, ref.mfs_skips);
  EXPECT_DOUBLE_EQ(hot.elapsed_seconds, ref.elapsed_seconds);
  ASSERT_EQ(hot.found.size(), ref.found.size());
  for (std::size_t i = 0; i < hot.found.size(); ++i) {
    EXPECT_TRUE(hot.found[i].mfs.witness == ref.found[i].mfs.witness) << i;
    EXPECT_EQ(hot.found[i].mfs.conditions.size(),
              ref.found[i].mfs.conditions.size());
    EXPECT_EQ(hot.found[i].found_at_seconds, ref.found[i].found_at_seconds);
    EXPECT_EQ(hot.found[i].dominant, ref.found[i].dominant);
  }
  ASSERT_EQ(hot.trace.size(), ref.trace.size());
  for (std::size_t i = 0; i < hot.trace.size(); ++i) {
    EXPECT_EQ(hot.trace[i].counter_value, ref.trace[i].counter_value) << i;
    EXPECT_EQ(hot.trace[i].rx_wqe_cache_miss, ref.trace[i].rx_wqe_cache_miss);
    EXPECT_EQ(hot.trace[i].anomaly_found, ref.trace[i].anomaly_found);
  }

  // The random baseline walks a different driver loop; pin it too.
  SearchBudget rnd_budget;
  rnd_budget.seconds = 30 * 60.0;
  Rng r1(17);
  Rng r2(17);
  const SearchResult rnd_hot = driver_.run_random(rnd_budget, r1);
  const SearchResult rnd_ref = uncompiled_driver.run_random(rnd_budget, r2);
  EXPECT_EQ(rnd_hot.experiments, rnd_ref.experiments);
  EXPECT_DOUBLE_EQ(rnd_hot.elapsed_seconds, rnd_ref.elapsed_seconds);
  EXPECT_EQ(rnd_hot.found.size(), rnd_ref.found.size());
}

TEST_F(SearchTest, MeasureAndJudgeChargesCost) {
  Rng rng(1);
  double cost = 0.0;
  Workload w = space_.random_point(rng);
  const Verdict v = driver_.measure_and_judge(w, rng, &cost);
  (void)v;
  EXPECT_GE(cost, 20.0);
}

}  // namespace
}  // namespace collie::core
