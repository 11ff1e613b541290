#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "core/search.h"
#include "sim/subsystem.h"
#include "workload/backend_mock.h"
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

// Every necessity probe's trace point shows the anomalous step's
// kRxWqeCacheMiss value, flat, in both columns: the step's caller records
// its phase counter on the step's own point, never on the extraction's
// last one.
TEST_F(SearchTest, ExtractionPointsKeepTheFlatCounterValue) {
  SearchBudget budget;
  budget.seconds = 3 * 3600.0;
  const auto check = [](const SearchResult& r) {
    int extraction_points = 0;
    double flat = 0.0;
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
      const TracePoint& tp = r.trace[i];
      if (!tp.in_mfs_extraction) {
        flat = tp.rx_wqe_cache_miss;
        continue;
      }
      ASSERT_GT(i, 0u);
      EXPECT_EQ(std::bit_cast<u64>(tp.rx_wqe_cache_miss),
                std::bit_cast<u64>(flat))
          << i;
      EXPECT_EQ(std::bit_cast<u64>(tp.counter_value), std::bit_cast<u64>(flat))
          << i;
      ++extraction_points;
    }
    EXPECT_GT(extraction_points, 0);
  };
  for (const GuidanceMode mode : {GuidanceMode::kDiag, GuidanceMode::kPerf}) {
    SaConfig cfg;
    cfg.mode = mode;
    Rng rng(9);
    check(driver_.run_simulated_annealing(cfg, budget, rng));
  }
  Rng rng(10);
  check(driver_.run_bayesian_optimization(budget, rng));
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

// ---- What each probe role requests -----------------------------------------

// Every probe's request as the backend saw it, with the averaged counters
// the scripted measurement returned.
struct RequestLog {
  std::vector<sim::EvalRequest> requests;
  std::vector<sim::CounterSample> averages;
};

// The driver sets each probe's request from its role: SA steps the phase's
// counter plus kRxWqeCacheMiss (the trace reads it), Perf phases and random
// steps kRxWqeCacheMiss only, ranking probes and BO steps all nine, MFS
// necessity probes the verdict under the monitor's pause rule, and
// measure_and_judge the full measurement.  A recording mock backend sees
// each probe's request; the trace has one point per probe, in order, which
// tells necessity probes from steps.
TEST(SearchRequests, EachProbeRoleRequestsWhatItReads) {
  RequestLog log;
  workload::MockBackendFactory factory(
      [&log](const Workload& w, workload::Measurement& out) {
        // Low throughput from 2048 QPs up, so extractions run; diagnostic
        // counters that vary with the workload, so phases have gradients.
        const bool slow = w.num_qps >= 2048;
        workload::script_measurement(out, slow ? 1e9 : 90e9, 0.0,
                                     slow ? 0.1 : 0.95);
        for (sim::CounterSample& s : out.samples) {
          for (int d = 0; d < sim::kNumDiagCounters; ++d) {
            s.diag[static_cast<std::size_t>(d)] =
                (d + 1.0) * w.num_qps + 1000.0 * d * w.wqe_batch +
                w.recv_wq_depth;
          }
        }
        out.average = sim::CounterSample::average(out.samples);
        log.requests.push_back(out.request);
        log.averages.push_back(out.average);
      });
  workload::EngineOptions opts;
  opts.backend_factory = &factory;
  const workload::Engine engine(sim::subsystem('F'), opts);
  const SearchSpace space(sim::subsystem('F'));
  const AnomalyMonitor monitor;
  SearchDriver driver(engine, space, monitor);
  SearchBudget budget;
  budget.seconds = 3 * 3600.0;
  const sim::DiagMask trace_bit =
      sim::diag_bit(sim::DiagCounter::kRxWqeCacheMiss);
  const sim::PauseRule& rule = monitor.config().pause;

  // Checks every necessity probe, hands every step's (index, request, probe
  // index) to `step`, then clears the log.
  const auto check = [&](const SearchResult& r, const auto& step) {
    ASSERT_EQ(log.requests.size(), r.trace.size());
    int steps = 0;
    int necessity = 0;
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
      const sim::EvalRequest& q = log.requests[i];
      if (r.trace[i].in_mfs_extraction) {
        ASSERT_TRUE(q.verdict_only.has_value()) << i;
        EXPECT_EQ(q.verdict_only->threshold, rule.threshold);
        EXPECT_EQ(q.verdict_only->fabric_headroom, rule.fabric_headroom);
        EXPECT_EQ(q.diag_read(), 0) << i;
        ++necessity;
      } else {
        EXPECT_FALSE(q.verdict_only.has_value()) << i;
        step(steps++, q.diag, i);
      }
    }
    EXPECT_GT(steps, 0);
    EXPECT_GT(necessity, 0);
    log = {};
  };

  // SA (Diag): ranking probes read all nine; then each phase's steps read
  // its counter plus the trace's, and the trace carries the phase counter's
  // value.  Phases are contiguous and never repeat a counter.
  {
    SaConfig cfg;
    cfg.mode = GuidanceMode::kDiag;
    Rng rng(5);
    const SearchResult r = driver.run_simulated_annealing(cfg, budget, rng);
    std::set<int> phases;
    int phase = -1;
    check(r, [&](int k, sim::DiagMask diag, std::size_t i) {
      if (k < kRankingProbes) {
        EXPECT_EQ(diag, sim::kAllDiagCounters) << "ranking probe " << k;
        return;
      }
      ASSERT_NE(diag & trace_bit, 0) << i;
      const sim::DiagMask rest = diag & static_cast<sim::DiagMask>(~trace_bit);
      ASSERT_LE(std::popcount(static_cast<unsigned>(rest)), 1) << i;
      const int counter =
          rest != 0 ? std::countr_zero(static_cast<unsigned>(rest))
                    : static_cast<int>(sim::DiagCounter::kRxWqeCacheMiss);
      EXPECT_EQ(r.trace[i].counter_value,
                log.averages[i].diag[static_cast<std::size_t>(counter)])
          << i;
      if (counter != phase) {
        EXPECT_TRUE(phases.insert(counter).second) << "phase repeats " << i;
        phase = counter;
      }
    });
    EXPECT_GE(phases.size(), 2u);
  }
  // SA (Perf) and random steps read only the trace's counter.
  const auto trace_only = [&](int, sim::DiagMask diag, std::size_t i) {
    EXPECT_EQ(diag, trace_bit) << i;
  };
  {
    SaConfig cfg;
    cfg.mode = GuidanceMode::kPerf;
    Rng rng(6);
    check(driver.run_simulated_annealing(cfg, budget, rng), trace_only);
  }
  {
    Rng rng(7);
    check(driver.run_random(budget, rng), trace_only);
  }
  // BO: ranking probes and every guided step read all nine.
  {
    Rng rng(8);
    check(driver.run_bayesian_optimization(budget, rng),
          [](int, sim::DiagMask diag, std::size_t i) {
            EXPECT_EQ(diag, sim::kAllDiagCounters) << i;
          });
  }
  // The single-shot measurement is the full one.
  Rng rng(9);
  (void)driver.measure_and_judge(space.random_point(rng), rng);
  ASSERT_EQ(log.requests.size(), 1u);
  EXPECT_FALSE(log.requests[0].verdict_only.has_value());
  EXPECT_EQ(log.requests[0].diag, sim::kAllDiagCounters);
}

}  // namespace
}  // namespace collie::core
