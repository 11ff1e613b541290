#include <gtest/gtest.h>

#include <cmath>

#include "baseline/bo.h"
#include "baseline/gp.h"
#include "baseline/linalg.h"
#include "sim/subsystem.h"

namespace collie::baseline {
namespace {

TEST(Linalg, CholeskyOfKnownMatrix) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  Matrix a(2, 2);
  a.at(0, 0) = 4;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 3;
  Matrix l;
  ASSERT_TRUE(cholesky(a, &l));
  EXPECT_NEAR(l.at(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l.at(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l.at(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 5;
  a.at(1, 0) = 5;
  a.at(1, 1) = 1;
  Matrix l;
  EXPECT_FALSE(cholesky(a, &l));
}

TEST(Linalg, SolveRoundTrip) {
  Matrix a(3, 3);
  // SPD matrix: diag-dominant.
  const double vals[3][3] = {{5, 1, 0.5}, {1, 4, 1}, {0.5, 1, 3}};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) a.at(i, j) = vals[i][j];
  }
  Matrix l;
  ASSERT_TRUE(cholesky(a, &l));
  const std::vector<double> x_true{1.0, -2.0, 0.5};
  std::vector<double> b(3, 0.0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      b[static_cast<std::size_t>(i)] +=
          vals[i][j] * x_true[static_cast<std::size_t>(j)];
    }
  }
  const std::vector<double> x = cholesky_solve(l, b);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(Gp, InterpolatesTrainingData) {
  GaussianProcess gp;
  std::vector<std::vector<double>> xs{{0.1}, {0.5}, {0.9}};
  std::vector<double> ys{1.0, 3.0, 2.0};
  ASSERT_TRUE(gp.fit(xs, ys));
  double mu = 0.0;
  double sigma = 0.0;
  gp.predict({0.5}, &mu, &sigma);
  EXPECT_NEAR(mu, 3.0, 0.3);
  // Uncertainty is low at a training point and higher far away.
  double sigma_far = 0.0;
  double mu_far = 0.0;
  gp.predict({5.0}, &mu_far, &sigma_far);
  EXPECT_GT(sigma_far, sigma);
}

TEST(Gp, PredictsPriorWhenUnfitted) {
  GaussianProcess gp;
  double mu = 1.0;
  double sigma = 0.0;
  gp.predict({0.3}, &mu, &sigma);
  EXPECT_DOUBLE_EQ(mu, 0.0);
}

TEST(Gp, ExpectedImprovementProperties) {
  // Higher mean -> higher EI; zero stddev -> max(0, mean - best).
  EXPECT_GT(expected_improvement(2.0, 0.5, 1.0),
            expected_improvement(1.0, 0.5, 1.0));
  EXPECT_DOUBLE_EQ(expected_improvement(2.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(expected_improvement(0.5, 0.0, 1.0), 0.0);
  // More uncertainty -> more EI when mean is below best.
  EXPECT_GT(expected_improvement(0.5, 1.0, 1.0),
            expected_improvement(0.5, 0.1, 1.0));
}

TEST(Bo, EncodingIsNormalized) {
  core::SearchSpace space(sim::subsystem('F'));
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Workload w = space.random_point(rng);
    const auto x = encode_workload(space, w);
    EXPECT_GT(x.size(), 10u);
    for (double v : x) {
      EXPECT_GE(v, -1e-9);
      EXPECT_LE(v, 1.0 + 1e-9);
    }
  }
}

// Regression for the no-op guidance path: the seed's BO produced runs
// byte-identical to plain random search at short budgets (subsystem F,
// 90-150 sim-minutes) because the per-phase random re-seeding plus MFS
// extraction consumed every phase deadline before a single EI-selected
// candidate reached the engine.
TEST(Bo, DivergesFromRandomAtShortBudgets) {
  workload::EngineOptions opts;
  opts.run_functional_pass = false;
  const sim::Subsystem& sys = sim::subsystem('F');
  workload::Engine engine(sys, opts);
  core::SearchSpace space(sys);
  core::SearchDriver driver(engine, space);
  core::SearchBudget budget;
  budget.seconds = 90 * 60.0;

  for (const u64 seed : {u64{3}, u64{7}}) {
    Rng rng_random(seed);
    const core::SearchResult random = driver.run_random(budget, rng_random);
    Rng rng_bo(seed);
    const core::SearchResult bo = run_bayesian_optimization(
        engine, space, core::AnomalyMonitor{}, BoConfig{}, budget, rng_bo);

    // The guided search must consult its surrogate: EI-skipped candidates
    // show up as MatchMFS hits random search cannot produce this way.
    EXPECT_GT(bo.mfs_skips, 0) << "seed " << seed;
    // And the measured experiment sequence must differ from random's.
    const bool same_shape = bo.experiments == random.experiments &&
                            bo.trace.size() == random.trace.size() &&
                            bo.elapsed_seconds == random.elapsed_seconds;
    EXPECT_FALSE(same_shape) << "seed " << seed
                             << ": bo is byte-identical to random";
  }
}

// Figure 4's premise, as the paper states it: MFS-enhanced BO barely
// improves on random input generation (bo.h).  The check is parity, not
// dominance, because dominance does not hold in expectation under either
// jitter model.  Over seeds 1-400 at this budget, BO found 2.2% fewer MFS
// regions than random under the Box-Muller model (-0.16 +/- 0.06 per seed)
// and 3.9% fewer under the counter stream (-0.28 +/- 0.06).  On distinct
// catalogued anomalies, Figure 4's own metric, both models give BO 9% fewer.
// A strict bo >= random on three seeds held by seed luck alone.  So the
// check sums the first 42 seeds and requires BO to reach 90% of random.
// That floor sits 2.5 standard deviations of the 42-seed sum below the
// expected shortfall, and well above what a BO that stopped finding
// anomalies would show.  DivergesFromRandomAtShortBudgets pins that BO is
// guided at all.
TEST(Bo, ParityDiscoveriesPerBudget) {
  workload::EngineOptions opts;
  opts.run_functional_pass = false;
  const sim::Subsystem& sys = sim::subsystem('F');
  workload::Engine engine(sys, opts);
  core::SearchSpace space(sys);
  core::SearchDriver driver(engine, space);
  core::SearchBudget budget;
  budget.seconds = 120 * 60.0;

  std::size_t random_found = 0;
  std::size_t bo_found = 0;
  for (u64 seed = 1; seed <= 42; ++seed) {
    Rng rng_random(seed);
    random_found += driver.run_random(budget, rng_random).found.size();
    Rng rng_bo(seed);
    bo_found += run_bayesian_optimization(engine, space,
                                          core::AnomalyMonitor{}, BoConfig{},
                                          budget, rng_bo)
                    .found.size();
  }
  EXPECT_GE(bo_found * 100, random_found * 90)
      << "bo " << bo_found << " vs random " << random_found;
  EXPECT_GT(bo_found, 0u);
}

TEST(Bo, RunsWithinBudget) {
  workload::EngineOptions opts;
  opts.run_functional_pass = false;
  workload::Engine engine(sim::subsystem('F'), opts);
  core::SearchSpace space(sim::subsystem('F'));
  core::SearchBudget budget;
  budget.seconds = 45 * 60.0;
  BoConfig cfg;
  Rng rng(1);
  const core::SearchResult r = run_bayesian_optimization(
      engine, space, core::AnomalyMonitor{}, cfg, budget, rng);
  EXPECT_GT(r.experiments, 10);
  EXPECT_GE(r.elapsed_seconds, budget.seconds * 0.9);
}

}  // namespace
}  // namespace collie::baseline
