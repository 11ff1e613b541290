// Evaluation hot path: zero steady-state allocations and scratch-reuse
// correctness, plus the pool-insert work counter.
//
// The compiled evaluate() overload promises that once an EvalScratch is
// warm, probing allocates nothing — the property the campaign's probe
// throughput rests on.  This binary counts every global operator new to pin
// it, across the workload shapes that exercise every conditional resource
// (anomalous, loopback/incast, scenario fabrics, armed congestion control),
// and pins that one scratch reused across scenarios and workloads answers
// bit-for-bit like a fresh evaluation each time.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "catalog/anomalies.h"
#include "core/mfs_store.h"
#include "core/search.h"
#include "core/space.h"
#include "nic/dcqcn.h"
#include "obs/telemetry.h"
#include "orchestrator/mfs_pool.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"
#include "workload/engine.h"

// ---- Global allocation counter --------------------------------------------

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) -
                                         1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

// Every replacement operator delete frees through one out-of-line
// function.  Inlined into a caller, a bare std::free would pair with that
// caller's operator new, which GCC reports as a mismatched deallocation.
namespace {
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace collie::sim {
namespace {

template <typename Fn>
long count_allocations(Fn&& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

Workload clean_write() {
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = 8;
  w.wqe_batch = 8;
  w.mr_size = 1 * MiB;
  w.pattern = {64 * KiB};
  w.mtu = 4096;
  return w;
}

Workload dcqcn_write(double rate_ai_mbps, double g) {
  Workload w = clean_write();
  w.dcqcn = true;
  w.dcqcn_rate_ai_mbps = rate_ai_mbps;
  w.dcqcn_g = g;
  return w;
}

// Workload shapes covering every conditional resource in build_model:
// healthy, ICM-miss-bound, READ small-MTU, loopback incast, bidirectional
// ordering hazard, and two CC-armed DCQCN senders whose co-simulation
// inputs differ, so the second one's first solve on a warm scratch misses
// the memo the first one filled.
std::vector<Workload> hot_workloads() {
  std::vector<Workload> ws;
  ws.push_back(clean_write());
  ws.push_back(catalog::anomaly(1).concrete);
  ws.push_back(catalog::anomaly(9).concrete);
  ws.push_back(catalog::anomaly(13).concrete);
  ws.push_back(dcqcn_write(40.0, 1.0 / 256.0));
  ws.push_back(dcqcn_write(1000.0, 1.0 / 64.0));
  return ws;
}

TEST(HotPathAllocation, SteadyStateEvaluateAllocatesNothing) {
  const std::vector<Workload> ws = hot_workloads();
  for (const char sys_id : {'F', 'H'}) {
    for (const char* fabric : {"pair", "fanin4"}) {
      const Subsystem sys = with_cc(
          with_fabric(subsystem(sys_id), net::fabric_scenario(fabric)),
          nic::cc_scenario("dcqcn"));
      const CompiledScenario compiled(sys);
      EvalScratch scratch;
      Rng rng(7);
      // Warm: first probes size every reusable buffer (flow/resource
      // tables, the samples vector, the note string) to this scenario's
      // shape.
      for (const Workload& w : ws) {
        (void)evaluate(compiled, w, rng, scratch);
        (void)evaluate(compiled, w, rng, scratch);
      }
      // The full evaluation and an SA step's (one diagnostic counter).
      const EvalRequest sa_step =
          EvalRequest::counters(diag_bit(DiagCounter::kRxWqeCacheMiss));
      for (const Workload& w : ws) {
        const long allocs = count_allocations([&] {
          for (int i = 0; i < 20; ++i) {
            (void)evaluate(compiled, w, rng, scratch);
            (void)evaluate(compiled, w, rng, scratch, {}, sa_step);
          }
        });
        EXPECT_EQ(allocs, 0)
            << sys_id << "@" << fabric << " " << w.describe();
      }
      // Memo misses on the warm scratch: every R_AI below is new to it, so
      // each congested probe co-simulates and fills or overwrites a slot.
      std::vector<Workload> unseen;
      for (int i = 0; i < 20; ++i) {
        unseen.push_back(dcqcn_write(2000.0 + i, 1.0 / 16.0));
      }
      const long miss_allocs = count_allocations([&] {
        for (const Workload& w : unseen) {
          (void)evaluate(compiled, w, rng, scratch);
        }
      });
      EXPECT_EQ(miss_allocs, 0) << sys_id << "@" << fabric;
    }
  }
}

// Sampling allocates only the workload it returns: random_point sizes its
// pattern once and mutate copies one, whatever the placement lists, opcode
// filter or size grid they draw from (CC-armed spaces draw more).
TEST(HotPathAllocation, SamplingAllocatesOnlyTheReturnedPattern) {
  for (const char* cc : {"off", "dcqcn"}) {
    const Subsystem sys =
        with_cc(with_fabric(subsystem('F'), net::fabric_scenario("hetero")),
                nic::cc_scenario(cc));
    const core::SearchSpace space(sys);
    Rng rng(3);
    Workload w = space.random_point(rng);
    long most_sample = 0;
    long most_mutate = 0;
    for (int i = 0; i < 500; ++i) {
      most_sample = std::max(
          most_sample,
          count_allocations([&] { w = space.random_point(rng); }));
      most_mutate = std::max(
          most_mutate, count_allocations([&] { w = space.mutate(w, rng); }));
    }
    EXPECT_EQ(most_sample, 1) << cc;
    EXPECT_EQ(most_mutate, 1) << cc;
  }
}

TEST(HotPathAllocation, IndexedCoversAllocatesNothingOnceWarm) {
  const Subsystem& sys = subsystem('F');
  core::SearchSpace space(sys);
  core::LocalMfsStore store;
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    const Workload wit = space.random_point(rng);
    core::Mfs m;
    m.symptom = core::Symptom::kPauseFrames;
    m.witness = wit;
    for (core::Feature f :
         {core::Feature::kNumQps, core::Feature::kWqeBatch,
          core::Feature::kMsgSize}) {
      core::FeatureCondition c;
      c.feature = f;
      c.categorical = false;
      const double v = std::max(1.0, space.numeric_value(wit, f));
      c.lo = v / 4.0;
      c.hi = v * 4.0;
      m.conditions.push_back(std::move(c));
    }
    core::FeatureCondition qp;
    qp.feature = core::Feature::kQpType;
    qp.categorical = true;
    qp.allowed = {space.categorical_value(wit, core::Feature::kQpType)};
    m.conditions.push_back(std::move(qp));
    store.insert(space, std::move(m));
  }
  std::vector<Workload> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(space.random_point(rng));
  // Warm the thread-local query mask.
  for (const Workload& w : queries) (void)store.covers(space, w);
  const long allocs = count_allocations([&] {
    for (int rep = 0; rep < 10; ++rep) {
      for (const Workload& w : queries) {
        (void)store.covers(space, w);
      }
    }
  });
  EXPECT_EQ(allocs, 0);
}

// A shared-pool insert costs O(new entry), not O(entries stored): with
// every MFS of one shape, the insert into a scope of 256 entries allocates
// exactly what the insert into a scope of 16 does.  Only amortized growth
// (the payload vector, the index's row stride) may add to a single insert,
// so each side takes the minimum over eight consecutive inserts.
TEST(HotPathAllocation, PoolInsertAllocationsIndependentOfScopeSize) {
  const core::SearchSpace space(subsystem('F'));
  constexpr int kWindow = 8;
  constexpr int kLast = 256 + kWindow;
  // One categorical and three numeric conditions, each numeric one a fresh
  // point range: every insert adds two endpoints per numeric feature.
  std::vector<core::Mfs> mfses;
  for (int i = 0; i < kLast; ++i) {
    core::Mfs m;
    m.symptom = core::Symptom::kPauseFrames;
    m.witness = clean_write();
    m.witness.num_qps = 1000 + i;
    core::FeatureCondition qp;
    qp.feature = core::Feature::kQpType;
    qp.categorical = true;
    qp.allowed = {static_cast<int>(QpType::kRC)};
    m.conditions.push_back(qp);
    for (const core::Feature f :
         {core::Feature::kNumQps, core::Feature::kMrSize,
          core::Feature::kCcAlphaG}) {
      core::FeatureCondition c;
      c.feature = f;
      c.categorical = false;
      c.lo = 1000.0 + i;
      c.hi = 1000.5 + i;
      m.conditions.push_back(c);
    }
    mfses.push_back(std::move(m));
  }
  orchestrator::ConcurrentMfsPool pool;
  // Inserts mfses[first, last); returns the fewest allocations one took.
  auto insert_range = [&](int first, int last) {
    long least = -1;
    for (int i = first; i < last; ++i) {
      const long allocs = count_allocations([&] {
        (void)pool.insert("F", space,
                          std::move(mfses[static_cast<std::size_t>(i)]), 0);
      });
      if (least < 0 || allocs < least) least = allocs;
    }
    return least;
  };
  (void)insert_range(0, 16);
  const long at16 = insert_range(16, 16 + kWindow);
  (void)insert_range(16 + kWindow, 256);
  const long at256 = insert_range(256, kLast);
  EXPECT_GT(at16, 0);  // the counter sees the index's per-condition scratch
  EXPECT_EQ(at256, at16);
  EXPECT_EQ(pool.size("F"), static_cast<std::size_t>(kLast));
}

TEST(HotPathAllocation, DriverProbeWithTelemetryOnAllocatesNothing) {
  // The full driver probe (engine run into the driver's reused Measurement,
  // monitor judgement) with a live obs::Telemetry attached: counters, stage
  // histograms and span-ring records must all stay on preallocated storage.
  // This also pins the scratch-owned Measurement — the in-place run()
  // overload may not reallocate samples or the note string once warm.
  obs::Telemetry telemetry;
  workload::EngineOptions eopts;
  eopts.telemetry = obs::ProbeTelemetry(&telemetry, 0);
  const Subsystem sys = with_cc(
      with_fabric(subsystem('F'), net::fabric_scenario("fanin4")),
      nic::cc_scenario("dcqcn"));
  const workload::Engine engine(sys, eopts);
  core::SearchSpace space(sys);
  core::SearchDriver driver(engine, space);
  driver.set_telemetry(obs::ProbeTelemetry(&telemetry, 0));

  const std::vector<Workload> ws = hot_workloads();
  Rng rng(7);
  for (const Workload& w : ws) {
    (void)driver.measure_and_judge(w, rng);
    (void)driver.measure_and_judge(w, rng);
  }
  for (const Workload& w : ws) {
    const long allocs = count_allocations([&] {
      for (int i = 0; i < 20; ++i) {
        double cost = 0.0;
        (void)driver.measure_and_judge(w, rng, &cost);
      }
    });
    EXPECT_EQ(allocs, 0) << w.describe();
  }
  // MFS necessity probes: a verdict-only run into their own reused
  // Measurement, then the judgement.
  const core::AnomalyMonitor monitor;
  workload::Measurement probe;
  EvalScratch scratch;
  for (const Workload& w : ws) {
    (void)engine.run(w, rng, scratch, probe,
                     sim::EvalRequest::verdict(monitor.config().pause));
  }
  for (const Workload& w : ws) {
    const long allocs = count_allocations([&] {
      for (int i = 0; i < 20; ++i) {
        (void)monitor.judge(
            engine.run(w, rng, scratch, probe,
                       sim::EvalRequest::verdict(monitor.config().pause)));
      }
    });
    EXPECT_EQ(allocs, 0) << "verdict-only " << w.describe();
  }
  // The instrumentation actually fired (this is not a vacuous pin).
  const obs::Snapshot snap = telemetry.snapshot();
  EXPECT_GE(snap.counters.at("probe.experiments"),
            static_cast<i64>(ws.size()) * 22);
  EXPECT_GT(snap.histograms.at("engine.eval_ns").count, 0u);
  EXPECT_GT(telemetry.ring(0).recorded(), 0u);
}

// Telemetry's per-probe cost, counted instead of timed: a wall-clock
// on/off ratio buries a fixed cost of a fraction of a microsecond in
// shared-runner noise.  Every measure_and_judge with a live Telemetry
// makes exactly these writes: one span record and one stage-histogram
// observation each for evaluate and monitor; one engine.eval_ns
// observation per model evaluation (two when the first was unstable); one
// increment each of probe.experiments and engine.backend.sim, plus
// probe.anomalies when the verdict fires and engine.remeasures per
// unstable evaluation.
// Nothing else in the registry moves.  A telemetry-free twin engine on the
// same Rng stream supplies each probe's verdict and re-measure count.
TEST(HotPathTelemetry, EachDriverProbeMakesAFixedSetOfWrites) {
  obs::TelemetryOptions topts;
  topts.workers = 1;
  obs::Telemetry telemetry(topts);
  workload::EngineOptions eopts;
  eopts.sim.jitter = 0.08;  // unstable samples: some probes re-measure
  const Subsystem& sys = subsystem('F');
  const workload::Engine twin(sys, eopts);
  eopts.telemetry = obs::ProbeTelemetry(&telemetry, 0);
  const workload::Engine engine(sys, eopts);
  core::SearchSpace space(sys);
  core::SearchDriver driver(engine, space);
  driver.set_telemetry(obs::ProbeTelemetry(&telemetry, 0));
  const core::AnomalyMonitor monitor;
  const auto stage = [](obs::ProbeStage st) {
    return std::string("probe.stage.") + obs::to_string(st) + "_ns";
  };

  constexpr int kProbes = 256;
  Rng pick(3);
  Rng rng(7);
  Rng twin_rng(7);
  EvalScratch scratch;
  workload::Measurement m;
  i64 observations = 0;
  i64 increments = 0;
  int anomalies = 0;
  int remeasured = 0;
  obs::Snapshot before = telemetry.snapshot();
  u64 spans = telemetry.ring(0).recorded();
  for (int i = 0; i < kProbes; ++i) {
    const Workload w = space.random_point(pick);
    const bool anomalous = driver.measure_and_judge(w, rng).anomalous();
    twin.run(w, twin_rng, scratch, m);
    ASSERT_EQ(anomalous, monitor.judge(m).anomalous()) << w.describe();
    ASSERT_EQ(rng.state(), twin_rng.state()) << w.describe();
    anomalies += anomalous ? 1 : 0;
    remeasured += m.remeasure_count > 0 ? 1 : 0;

    const std::map<std::string, i64> want_counters = {
        {"probe.experiments", 1},
        {"engine.backend.sim", 1},
        {"probe.anomalies", anomalous ? 1 : 0},
        {"engine.remeasures", m.remeasure_count}};
    const std::map<std::string, i64> want_observations = {
        {stage(obs::ProbeStage::kEvaluate), 1},
        {stage(obs::ProbeStage::kMonitor), 1},
        {"engine.eval_ns", m.remeasure_count > 0 ? 2 : 1}};
    const obs::Snapshot after = telemetry.snapshot();
    ASSERT_EQ(after.counters.size(), before.counters.size());
    for (const auto& [name, value] : after.counters) {
      const auto want = want_counters.find(name);
      const i64 delta = value - before.counters.at(name);
      EXPECT_EQ(delta, want == want_counters.end() ? 0 : want->second)
          << name << " probe " << i;
      increments += delta;
    }
    ASSERT_EQ(after.histograms.size(), before.histograms.size());
    for (const auto& [name, h] : after.histograms) {
      const auto want = want_observations.find(name);
      const i64 delta =
          static_cast<i64>(h.count - before.histograms.at(name).count);
      EXPECT_EQ(delta, want == want_observations.end() ? 0 : want->second)
          << name << " probe " << i;
      observations += delta;
    }
    EXPECT_EQ(after.gauges, before.gauges) << "probe " << i;
    EXPECT_EQ(telemetry.ring(0).recorded() - spans, 2u) << "probe " << i;
    spans = telemetry.ring(0).recorded();
    before = after;
  }
  // Both optional writes occurred, and the totals are pinned.
  EXPECT_GT(anomalies, 0);
  EXPECT_GT(remeasured, 0);
  EXPECT_EQ(increments, 705);
  EXPECT_EQ(observations, 814);
}

TEST(HotPathScratch, ReuseAcrossScenariosMatchesFreshEvaluationBitForBit) {
  // One scratch dragged across scenarios and workload shapes must never
  // leak state: every call equals an uncompiled fresh-scratch evaluation,
  // field for field, and leaves the caller's RNG at the same position.
  //
  // The scratch's DCQCN memo gets the same scrutiny.  A (R_AI, g) sweep,
  // run twice per scenario, repeats exact co-simulation inputs (memo hits)
  // and feeds the 1024-slot direct-mapped table ~220 distinct keys over the
  // six congested scenarios: by the birthday bound, slots collide (P(no
  // collision) < 1e-10), and some keys are evicted before their second
  // round.  The fresh evaluation never hits a memo, so any stale or
  // foreign slot shows up as a mismatch.
  std::vector<Workload> ws = hot_workloads();
  for (int round = 0; round < 2; ++round) {
    for (const double ai : {1.0, 10.0, 40.0, 100.0, 400.0, 1000.0, 4000.0}) {
      for (const double g : {1.0 / 256.0, 1.0 / 64.0, 1.0 / 16.0, 0.25, 1.0}) {
        ws.push_back(dcqcn_write(ai, g));
      }
    }
  }
  EvalScratch reused;
  for (const char* fabric : {"fanin4", "pair", "hetero"}) {
    for (const char sys_id : {'B', 'F', 'H'}) {
      const Subsystem sys = with_cc(
          with_fabric(subsystem(sys_id), net::fabric_scenario(fabric)),
          nic::cc_scenario("dcqcn"));
      const CompiledScenario compiled(sys);
      for (const Workload& w : ws) {
        Rng fresh_rng(11);
        Rng hot_rng(11);
        const SimResult fresh = evaluate(sys, w, fresh_rng);
        const SimResult& hot = evaluate(compiled, w, hot_rng, reused);
        EXPECT_EQ(fresh.tx_goodput_bps, hot.tx_goodput_bps);
        EXPECT_EQ(fresh.rx_goodput_bps, hot.rx_goodput_bps);
        EXPECT_EQ(fresh.tx_wire_bps, hot.tx_wire_bps);
        EXPECT_EQ(fresh.rx_wire_bps, hot.rx_wire_bps);
        EXPECT_EQ(fresh.tx_pps, hot.tx_pps);
        EXPECT_EQ(fresh.rx_pps, hot.rx_pps);
        EXPECT_EQ(fresh.pause_duration_ratio, hot.pause_duration_ratio);
        EXPECT_EQ(fresh.fabric_pause_ratio, hot.fabric_pause_ratio);
        EXPECT_EQ(fresh.cc_suppressed_ratio, hot.cc_suppressed_ratio);
        EXPECT_EQ(fresh.cc_mark_probability, hot.cc_mark_probability);
        EXPECT_EQ(fresh.wire_utilization, hot.wire_utilization);
        EXPECT_EQ(fresh.pps_utilization, hot.pps_utilization);
        EXPECT_EQ(fresh.dominant, hot.dominant);
        EXPECT_EQ(fresh.bottleneck_note, hot.bottleneck_note);
        ASSERT_EQ(fresh.port_pause_ratio.size(),
                  hot.port_pause_ratio.size());
        for (std::size_t p = 0; p < fresh.port_pause_ratio.size(); ++p) {
          EXPECT_EQ(fresh.port_pause_ratio[p], hot.port_pause_ratio[p]);
        }
        ASSERT_EQ(fresh.samples.size(), hot.samples.size());
        for (std::size_t k = 0; k < fresh.samples.size(); ++k) {
          EXPECT_EQ(fresh.samples[k].perf, hot.samples[k].perf);
          EXPECT_EQ(fresh.samples[k].diag, hot.samples[k].diag);
        }
        EXPECT_EQ(fresh.counters.perf, hot.counters.perf);
        EXPECT_EQ(fresh.counters.diag, hot.counters.diag);
        EXPECT_EQ(fresh_rng.next_u64(), hot_rng.next_u64());
      }
    }
  }
}

TEST(HotPathScratch, ResultReferenceIsInvalidatedNotCorrupted) {
  // The returned reference aliases the scratch: the next call overwrites
  // it.  Copying before the next call must preserve the first result.
  const Subsystem& sys = subsystem('F');
  const CompiledScenario compiled(sys);
  EvalScratch scratch;
  Rng rng(5);
  const SimResult first = evaluate(compiled, clean_write(), rng, scratch);
  Workload other = catalog::anomaly(1).concrete;
  const SimResult& second = evaluate(compiled, other, rng, scratch);
  EXPECT_NE(first.rx_goodput_bps, second.rx_goodput_bps);
}

}  // namespace
}  // namespace collie::sim
