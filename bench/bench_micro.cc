// Micro-benchmarks (google-benchmark) for the hot paths of the
// reproduction: one performance-model evaluation is the unit of work for
// every search experiment, so its cost bounds how fast the figure harnesses
// run; MatchMFS, mutation, the verbs data path and the GP fit are the
// other per-iteration costs.
//
// BM_PerfModelEvaluate* run the compiled hot path (CompiledScenario +
// reused EvalScratch) — the way every search driver now probes.  The
// *Uncompiled twins keep the compile-per-call reference measurable, and
// the SteadySolve pair isolates the model-build/solve/metrics stage whose
// per-probe cost the compiled path eliminates (the full evaluation adds
// the sampled-epoch jitter rollout on the one-key counter stream).
// BM_PerfModelEvaluateVerdict is the verdict-only evaluation an MFS
// necessity probe runs.  BM_CcSteadyState isolates the DCQCN
// co-simulation, the layer that dominates DCQCN-armed campaigns.
// BM_BuildReport and BM_ReportToJson time the campaign report's two stages
// (dedup and JSON rendering) over one fixed campaign result.
//
// Beyond the google-benchmark registry, this binary has a perf-trajectory
// mode:
//
//   bench_micro --json [file]             measure the headline hot-path
//                                         metrics and write the "micro"
//                                         section of BENCH_hotpath.json
//   bench_micro --check-baseline <file>   also compare *_per_sec metrics
//                                         against a committed baseline and
//                                         exit non-zero on a >35% regression
//
// Both also report measure_and_judge with a live obs::Telemetry vs the null
// handle (probe_metrics_*, ungated).  Telemetry's per-probe work is pinned
// exactly in hotpath_test (HotPathTelemetry.*), not by wall-clock time.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "baseline/bo.h"
#include "baseline/gp.h"
#include "bench_json.h"
#include "catalog/anomalies.h"
#include "common/cli.h"
#include "core/mfs.h"
#include "core/mfs_store.h"
#include "core/search.h"
#include "core/space.h"
#include "net/wire.h"
#include "nic/dcqcn.h"
#include "obs/telemetry.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/mfs_pool.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"
#include "verbs/verbs.h"
#include "workload/engine.h"

using namespace collie;

namespace {

Workload bulk_workload() {
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = 8;
  w.wqe_batch = 8;
  w.mr_size = 1 * MiB;
  w.pattern = {64 * KiB};
  return w;
}

// The solver stage alone: everything evaluate() does before the epoch
// rollout.
sim::SimConfig steady_solve_config() {
  sim::SimConfig cfg;
  cfg.epochs = 0;
  cfg.warmup_epochs = 0;
  return cfg;
}

// One throttled co-simulation input: subsystem F on the fanin4 fabric
// under the catalog "dcqcn" scenario, the sender offering its line rate
// into its quarter share of the receiver port with the workload-default
// R_AI and g.  The solver is called directly, without the EvalScratch
// memo, so every call co-simulates.
struct CcSolveInput {
  double offered_bps;
  double capacity_bps;
  double line_rate_bps;
  double flows;
  net::EcnParams ecn;
  nic::DcqcnParams params;
  double pkt_bytes;

  nic::CcSteadyState solve() const {
    return nic::solve_cc_steady_state(offered_bps, capacity_bps,
                                      line_rate_bps, flows, ecn, params,
                                      pkt_bytes);
  }
};

CcSolveInput fanin4_cc_input() {
  const sim::Subsystem sys = sim::with_cc(
      sim::with_fabric(sim::subsystem('F'), net::fabric_scenario("fanin4")),
      nic::cc_scenario("dcqcn"));
  const Workload w;  // for the default per-QP DCQCN knobs
  nic::DcqcnParams params = sys.cc;
  params.rate_ai_bps = mbps(w.dcqcn_rate_ai_mbps);
  params.g = w.dcqcn_g;
  return {sys.nicm.line_rate_bps, sys.fabric.receiver_share_bps(),
          sys.nicm.line_rate_bps, 8.0, sys.fabric.ecn(1), params, 4178.0};
}

// Co-simulating solver inputs shaped like cc_fabric's: every catalog
// subsystem on the hetero and fanin4 fabrics under the "dcqcn" thresholds.
// Each input congests one port of one cell: its drain is that port's share
// of the path, the offer is the sender's line rate (a quarter of the time a
// random fraction of it), flows and the packet size (a full MTU on the
// wire) are drawn at random, and g and R_AI from the search space's grids.
// The fanin4 input above spends 30% of its steps with an empty queue; the
// four cc_fabric campaigns spend 45% there, and this set 53%.
std::vector<CcSolveInput> cc_mix_inputs() {
  constexpr int kPerCell = 4;  // 8 subsystems x 2 fabrics x 4 = 64 inputs
  const core::SpaceConfig grids;
  const Workload defaults;
  Rng rng(0xcc);
  const auto pick = [&rng](const std::vector<double>& grid) {
    return grid[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<i64>(grid.size()) - 1))];
  };
  std::vector<CcSolveInput> out;
  for (const char id : sim::all_subsystem_ids()) {
    for (const char* fabric : {"hetero", "fanin4"}) {
      const sim::Subsystem sys = sim::with_cc(
          sim::with_fabric(sim::subsystem(id), net::fabric_scenario(fabric)),
          nic::cc_scenario("dcqcn"));
      const double line = sys.nicm.line_rate_bps;
      const double drain[2] = {std::min(sys.fabric.port_rate(0), line),
                               sys.fabric.receiver_share_bps()};
      for (int drawn = 0; drawn < kPerCell;) {
        const int port = static_cast<int>(rng.uniform_int(0, 1));
        nic::DcqcnParams params = sys.cc;
        params.rate_ai_bps = mbps(pick(grids.cc_rate_ai_mbps));
        params.g = pick(grids.cc_alpha_g);
        const double mtu = static_cast<double>(
            defaults.mtu >> rng.uniform_int(0, 4));  // 4096 .. 256
        const CcSolveInput in{
            rng.bernoulli(0.75) ? line : line * rng.uniform(0.3, 1.0),
            drain[port],
            line,
            static_cast<double>(i64{1} << rng.uniform_int(0, 6)),
            sys.fabric.ecn(port),
            params,
            mtu + net::kPerPacketOverheadBytes};
        if (nic::cc_passes_through(in.offered_bps, in.capacity_bps, in.ecn,
                                   in.params)) {
          continue;  // only co-simulating inputs are timed
        }
        out.push_back(in);
        ++drawn;
      }
    }
  }
  return out;
}

void BM_CcSteadyState(benchmark::State& state) {
  const CcSolveInput in = fanin4_cc_input();
  if (!in.solve().throttled) {
    state.SkipWithError("fanin4 dcqcn input no longer throttles");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.solve());
  }
}
BENCHMARK(BM_CcSteadyState);

// The same solver over cc_mix_inputs(), one input per iteration.
void BM_CcSteadyStateMix(benchmark::State& state) {
  const std::vector<CcSolveInput> inputs = cc_mix_inputs();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inputs[next].solve());
    next = next + 1 == inputs.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_CcSteadyStateMix);

void BM_PerfModelEvaluateClean(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const sim::CompiledScenario compiled(sys);
  sim::EvalScratch scratch;
  const Workload w = bulk_workload();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::evaluate(compiled, w, rng, scratch));
  }
}
BENCHMARK(BM_PerfModelEvaluateClean);

void BM_PerfModelEvaluateAnomalous(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const sim::CompiledScenario compiled(sys);
  sim::EvalScratch scratch;
  const Workload w =
      catalog::anomaly(static_cast<int>(state.range(0))).concrete;
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::evaluate(compiled, w, rng, scratch));
  }
}
BENCHMARK(BM_PerfModelEvaluateAnomalous)->Arg(1)->Arg(4)->Arg(9)->Arg(13);

// The same witnesses evaluated verdict-only under the monitor's default
// pause rule: what an MFS necessity probe costs.
void BM_PerfModelEvaluateVerdict(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const sim::CompiledScenario compiled(sys);
  sim::EvalScratch scratch;
  const Workload w =
      catalog::anomaly(static_cast<int>(state.range(0))).concrete;
  const sim::EvalRequest request = sim::EvalRequest::verdict({});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::evaluate(compiled, w, rng, scratch, {}, request));
  }
}
BENCHMARK(BM_PerfModelEvaluateVerdict)->Arg(1)->Arg(4)->Arg(9)->Arg(13);

// The same witnesses evaluated as an SA step reads them: the perf counters
// plus one diagnostic counter.
void BM_PerfModelEvaluateSaStep(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const sim::CompiledScenario compiled(sys);
  sim::EvalScratch scratch;
  const Workload w =
      catalog::anomaly(static_cast<int>(state.range(0))).concrete;
  const sim::EvalRequest request = sim::EvalRequest::counters(
      sim::diag_bit(sim::DiagCounter::kRxWqeCacheMiss));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::evaluate(compiled, w, rng, scratch, {}, request));
  }
}
BENCHMARK(BM_PerfModelEvaluateSaStep)->Arg(1)->Arg(4)->Arg(9)->Arg(13);

void BM_PerfModelEvaluateUncompiled(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const Workload w = bulk_workload();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::evaluate(sys, w, rng));
  }
}
BENCHMARK(BM_PerfModelEvaluateUncompiled);

void BM_PerfModelEvaluateSteadySolve(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const sim::CompiledScenario compiled(sys);
  sim::EvalScratch scratch;
  const sim::SimConfig cfg = steady_solve_config();
  const Workload w = bulk_workload();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::evaluate(compiled, w, rng, scratch, cfg));
  }
}
BENCHMARK(BM_PerfModelEvaluateSteadySolve);

void BM_PerfModelEvaluateSteadySolveUncompiled(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  const sim::SimConfig cfg = steady_solve_config();
  const Workload w = bulk_workload();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::evaluate(sys, w, rng, cfg));
  }
}
BENCHMARK(BM_PerfModelEvaluateSteadySolveUncompiled);

void BM_CompileScenario(benchmark::State& state) {
  const sim::Subsystem& sys = sim::subsystem('F');
  for (auto _ : state) {
    sim::CompiledScenario compiled(sys);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileScenario);

void BM_EngineRunWithFunctionalPass(benchmark::State& state) {
  workload::Engine engine(sim::subsystem('F'));
  sim::EvalScratch scratch;
  const Workload w = bulk_workload();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(w, rng, scratch));
  }
}
BENCHMARK(BM_EngineRunWithFunctionalPass);

// Telemetry overhead pair: the full single-probe driver path
// (measure_and_judge = engine run + monitor judgement) with a live
// worker-sharded Telemetry attached vs the default null handle.
void BM_ProbeMetricsOff(benchmark::State& state) {
  workload::Engine engine(sim::subsystem('F'));
  core::SearchSpace space(sim::subsystem('F'));
  core::SearchDriver driver(engine, space);
  const Workload w = bulk_workload();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.measure_and_judge(w, rng));
  }
}
BENCHMARK(BM_ProbeMetricsOff);

void BM_ProbeMetricsOn(benchmark::State& state) {
  obs::TelemetryOptions topts;
  topts.workers = 1;
  obs::Telemetry telemetry(topts);
  workload::EngineOptions eopts;
  eopts.telemetry = obs::ProbeTelemetry(&telemetry, 0);
  workload::Engine engine(sim::subsystem('F'), eopts);
  core::SearchSpace space(sim::subsystem('F'));
  core::SearchDriver driver(engine, space);
  driver.set_telemetry(obs::ProbeTelemetry(&telemetry, 0));
  const Workload w = bulk_workload();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.measure_and_judge(w, rng));
  }
}
BENCHMARK(BM_ProbeMetricsOn);

void BM_SpaceRandomPoint(benchmark::State& state) {
  core::SearchSpace space(sim::subsystem('F'));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.random_point(rng));
  }
}
BENCHMARK(BM_SpaceRandomPoint);

void BM_SpaceMutate(benchmark::State& state) {
  core::SearchSpace space(sim::subsystem('F'));
  Rng rng(1);
  Workload w = space.random_point(rng);
  for (auto _ : state) {
    w = space.mutate(w, rng);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_SpaceMutate);

void BM_MfsMatch(benchmark::State& state) {
  core::SearchSpace space(sim::subsystem('F'));
  core::Mfs mfs;
  core::FeatureCondition qp;
  qp.feature = core::Feature::kQpType;
  qp.categorical = true;
  qp.allowed = {static_cast<int>(QpType::kUD)};
  core::FeatureCondition batch;
  batch.feature = core::Feature::kWqeBatch;
  batch.categorical = false;
  batch.lo = 64;
  mfs.conditions = {qp, batch};
  Rng rng(1);
  const Workload w = space.random_point(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mfs.matches(space, w));
  }
}
BENCHMARK(BM_MfsMatch);

// MFS sets shaped like construct_mfs output: a categorical profile plus the
// always-bounded scale features in two-octave bands around a witness.
core::Mfs pool_shaped_mfs(const core::SearchSpace& space, Rng& rng) {
  const Workload wit = space.random_point(rng);
  core::Mfs m;
  m.symptom = core::Symptom::kPauseFrames;
  m.witness = wit;
  for (core::Feature f : {core::Feature::kQpType, core::Feature::kOpcode,
                          core::Feature::kDirection}) {
    if (!rng.bernoulli(0.6)) continue;
    core::FeatureCondition c;
    c.feature = f;
    c.categorical = true;
    c.allowed = {space.categorical_value(wit, f)};
    m.conditions.push_back(std::move(c));
  }
  for (core::Feature f :
       {core::Feature::kNumQps, core::Feature::kWqeBatch,
        core::Feature::kRecvWqDepth, core::Feature::kMsgSize}) {
    core::FeatureCondition c;
    c.feature = f;
    c.categorical = false;
    const double v = std::max(1.0, space.numeric_value(wit, f));
    c.lo = v / 4.0;
    c.hi = v * 4.0;
    m.conditions.push_back(std::move(c));
  }
  return m;
}

void BM_MfsCoversIndexed(benchmark::State& state) {
  core::SearchSpace space(sim::subsystem('F'));
  Rng rng(1);
  core::LocalMfsStore store;
  for (int i = 0; i < state.range(0); ++i) {
    store.insert(space, pool_shaped_mfs(space, rng));
  }
  std::vector<Workload> ws;
  for (int i = 0; i < 512; ++i) ws.push_back(space.random_point(rng));
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.covers(space, ws[q++ & 511]));
  }
}
BENCHMARK(BM_MfsCoversIndexed)->Arg(8)->Arg(64)->Arg(256);

void BM_MfsCoversLinearScan(benchmark::State& state) {
  core::SearchSpace space(sim::subsystem('F'));
  Rng rng(1);
  std::vector<core::Mfs> set;
  for (int i = 0; i < state.range(0); ++i) {
    set.push_back(pool_shaped_mfs(space, rng));
  }
  std::vector<Workload> ws;
  for (int i = 0; i < 512; ++i) ws.push_back(space.random_point(rng));
  std::size_t q = 0;
  for (auto _ : state) {
    const Workload& w = ws[q++ & 511];
    bool covered = false;
    for (const core::Mfs& m : set) {
      if (m.matches(space, w)) {
        covered = true;
        break;
      }
    }
    benchmark::DoNotOptimize(covered);
  }
}
BENCHMARK(BM_MfsCoversLinearScan)->Arg(8)->Arg(64)->Arg(256);

// One shared-pool insert into a scope that already holds range(0) entries:
// argument copy, duplicate check, successor snapshot, index add, publish.
// The scope is rebuilt (untimed) every 32 inserts so it stays near its
// nominal size.  Informational; no baseline entry.
void BM_PoolInsert(benchmark::State& state) {
  core::SearchSpace space(sim::subsystem('F'));
  const std::size_t base = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 32;
  Rng rng(1);
  std::vector<core::Mfs> mfses;
  for (std::size_t i = 0; i < base + kBatch; ++i) {
    mfses.push_back(pool_shaped_mfs(space, rng));
  }
  std::unique_ptr<orchestrator::ConcurrentMfsPool> pool;
  std::size_t next = kBatch;
  for (auto _ : state) {
    if (next == kBatch) {
      state.PauseTiming();
      pool = std::make_unique<orchestrator::ConcurrentMfsPool>();
      for (std::size_t i = 0; i < base; ++i) {
        pool->insert("F", space, mfses[i], 0);
      }
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        pool->insert("F", space, mfses[base + next++], 0));
  }
}
BENCHMARK(BM_PoolInsert)->Arg(16)->Arg(256);

// One fixed campaign result: the default grid (every subsystem, the pair
// fabric, CC off) under both guidance modes for 2 simulated hours per cell.
orchestrator::CampaignResult report_bench_result() {
  orchestrator::CampaignConfig config;
  config.modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  config.budget.seconds = 2 * 3600.0;
  return orchestrator::Campaign(config).run();
}

// Building the report of that result: grouping, dedup of every discovery
// against its group's representatives, coverage roll-up.  Informational;
// no baseline entry.
void BM_BuildReport(benchmark::State& state) {
  const orchestrator::CampaignResult result = report_bench_result();
  for (auto _ : state) {
    benchmark::DoNotOptimize(orchestrator::build_report(result));
  }
}
BENCHMARK(BM_BuildReport);

// Rendering that report as JSON: every anomaly's representative MFS,
// witness and double-valued fields.  Every run renders the same report.
// Informational; no baseline entry.
void BM_ReportToJson(benchmark::State& state) {
  const orchestrator::CampaignReport report =
      orchestrator::build_report(report_bench_result());
  for (auto _ : state) {
    benchmark::DoNotOptimize(report.to_json());
  }
  state.counters["anomalies"] = static_cast<double>(report.anomalies.size());
}
BENCHMARK(BM_ReportToJson);

void BM_VerbsWritePath(benchmark::State& state) {
  verbs::Network net;
  verbs::Context* a = net.add_host();
  verbs::Context* b = net.add_host();
  verbs::Pd* pda = a->alloc_pd();
  verbs::Pd* pdb = b->alloc_pd();
  verbs::Cq* cqa = a->create_cq(4096);
  verbs::Cq* cqb = b->create_cq(4096);
  std::vector<u8> ba(64 * KiB);
  std::vector<u8> bb(64 * KiB);
  verbs::Mr* mra =
      a->reg_mr(pda, ba.data(), ba.size(),
                verbs::kLocalWrite | verbs::kRemoteWrite);
  verbs::Mr* mrb =
      b->reg_mr(pdb, bb.data(), bb.size(),
                verbs::kLocalWrite | verbs::kRemoteWrite);
  verbs::Qp* qa = a->create_qp(pda, cqa, cqa, verbs::QpType::kRC, {});
  verbs::Qp* qb = b->create_qp(pdb, cqb, cqb, verbs::QpType::kRC, {});
  verbs::connect_pair(qa, qb, 4096);
  verbs::SendWr wr;
  wr.opcode = verbs::WrOpcode::kWrite;
  wr.remote_addr = mrb->addr();
  wr.rkey = mrb->rkey();
  wr.sg_list = {{mra->addr(), 4096, mra->lkey()}};
  verbs::Wc wc;
  for (auto _ : state) {
    qa->post_send({wr});
    net.progress();
    cqa->poll(&wc, 1);
    benchmark::DoNotOptimize(wc);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 4096);
}
BENCHMARK(BM_VerbsWritePath);

void BM_GpFitPredict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(15);
    for (auto& v : x) v = rng.uniform();
    ys.push_back(rng.uniform());
    xs.push_back(std::move(x));
  }
  baseline::GaussianProcess gp;
  std::vector<double> q(15, 0.5);
  for (auto _ : state) {
    gp.fit(xs, ys);
    double mu = 0.0;
    double sigma = 0.0;
    gp.predict(q, &mu, &sigma);
    benchmark::DoNotOptimize(mu + sigma);
  }
}
BENCHMARK(BM_GpFitPredict)->Arg(32)->Arg(96);

void BM_ExperimentCostModel(benchmark::State& state) {
  const Workload w = bulk_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::experiment_cost_seconds(w));
  }
}
BENCHMARK(BM_ExperimentCostModel);

// ---- Perf-trajectory mode (--json / --check-baseline) ---------------------

// Wall-clock ops/second of `fn`, self-calibrating to ~0.3 s of measurement
// after a short warmup.
template <typename Fn>
double ops_per_second(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  long iters = 64;
  for (;;) {
    for (long i = 0; i < iters / 4 + 1; ++i) fn();  // warm
    const auto t0 = clock::now();
    for (long i = 0; i < iters; ++i) fn();
    const double seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (seconds >= 0.3 || iters > (1L << 30)) {
      return static_cast<double>(iters) / seconds;
    }
    iters *= 4;
  }
}

benchjson::Section measure_micro_section() {
  benchjson::Section out;
  const sim::Subsystem& sys = sim::subsystem('F');
  const Workload w = bulk_workload();

  {
    const sim::CompiledScenario compiled(sys);
    sim::EvalScratch scratch;
    Rng rng(1);
    out["probes_per_sec"] = ops_per_second(
        [&] { benchmark::DoNotOptimize(sim::evaluate(compiled, w, rng, scratch)); });
  }
  {
    Rng rng(1);
    out["probes_per_sec_uncompiled"] = ops_per_second(
        [&] { benchmark::DoNotOptimize(sim::evaluate(sys, w, rng)); });
  }
  out["probes_speedup_vs_uncompiled"] =
      out["probes_per_sec"] / out["probes_per_sec_uncompiled"];

  const sim::SimConfig solve_cfg = steady_solve_config();
  {
    const sim::CompiledScenario compiled(sys);
    sim::EvalScratch scratch;
    Rng rng(1);
    out["steady_solves_per_sec"] = ops_per_second([&] {
      benchmark::DoNotOptimize(sim::evaluate(compiled, w, rng, scratch, solve_cfg));
    });
  }
  {
    Rng rng(1);
    out["steady_solves_per_sec_uncompiled"] = ops_per_second(
        [&] { benchmark::DoNotOptimize(sim::evaluate(sys, w, rng, solve_cfg)); });
  }
  out["steady_solve_speedup_vs_uncompiled"] =
      out["steady_solves_per_sec"] / out["steady_solves_per_sec_uncompiled"];

  // Informational layer rows (times, not *_per_sec rates, so the baseline
  // gate never reads them): one verdict-only evaluation and one SA-step
  // evaluation (one requested diagnostic counter), each averaged over the
  // BM_PerfModelEvaluateVerdict witnesses; one DCQCN co-simulation, no
  // memo, on the fanin4 input and averaged over the campaign-shaped mix.
  {
    const sim::CompiledScenario compiled(sys);
    sim::EvalScratch scratch;
    std::vector<Workload> witnesses;
    for (const int id : {1, 4, 9, 13}) {
      witnesses.push_back(catalog::anomaly(id).concrete);
    }
    const auto time_us = [&](const sim::EvalRequest& request) {
      Rng rng(1);
      std::size_t next = 0;
      return 1e6 / ops_per_second([&] {
        benchmark::DoNotOptimize(sim::evaluate(compiled, witnesses[next], rng,
                                               scratch, {}, request));
        next = (next + 1) % witnesses.size();
      });
    };
    out["evaluate_verdict_us"] = time_us(sim::EvalRequest::verdict({}));
    out["evaluate_sa_step_us"] = time_us(sim::EvalRequest::counters(
        sim::diag_bit(sim::DiagCounter::kRxWqeCacheMiss)));
  }
  {
    const CcSolveInput in = fanin4_cc_input();
    out["cc_steady_state_us"] =
        1e6 / ops_per_second([&] { benchmark::DoNotOptimize(in.solve()); });
    const std::vector<CcSolveInput> mix = cc_mix_inputs();
    std::size_t next = 0;
    out["cc_steady_state_mix_us"] = 1e6 / ops_per_second([&] {
      benchmark::DoNotOptimize(mix[next].solve());
      next = next + 1 == mix.size() ? 0 : next + 1;
    });
  }

  {
    // The report rows (BM_BuildReport, BM_ReportToJson), in ms.
    const orchestrator::CampaignResult result = report_bench_result();
    out["report_build_ms"] = 1e3 / ops_per_second([&] {
      benchmark::DoNotOptimize(orchestrator::build_report(result));
    });
    const orchestrator::CampaignReport report =
        orchestrator::build_report(result);
    out["report_json_ms"] = 1e3 / ops_per_second(
        [&] { benchmark::DoNotOptimize(report.to_json()); });
  }

  {
    core::SearchSpace space(sys);
    Rng rng(1);
    core::LocalMfsStore store;
    std::vector<core::Mfs> set;
    for (int i = 0; i < 64; ++i) {
      core::Mfs m = pool_shaped_mfs(space, rng);
      set.push_back(m);
      store.insert(space, std::move(m));
    }
    std::vector<Workload> ws;
    for (int i = 0; i < 512; ++i) ws.push_back(space.random_point(rng));
    std::size_t q1 = 0;
    out["covers_per_sec"] = ops_per_second(
        [&] { benchmark::DoNotOptimize(store.covers(space, ws[q1++ & 511])); });
    std::size_t q2 = 0;
    out["covers_per_sec_linear"] = ops_per_second([&] {
      const Workload& probe = ws[q2++ & 511];
      bool covered = false;
      for (const core::Mfs& m : set) {
        if (m.matches(space, probe)) {
          covered = true;
          break;
        }
      }
      benchmark::DoNotOptimize(covered);
    });
    out["covers_speedup_vs_linear"] =
        out["covers_per_sec"] / out["covers_per_sec_linear"];
    out["covers_mfs_entries"] = 64;
  }
  return out;
}

// One attempt at the telemetry-overhead pair: probes/sec through the full
// driver path (measure_and_judge) with metrics off, then with a live
// Telemetry attached.  Fresh driver state per attempt so neither side
// inherits the other's warmed caches unevenly.
struct MetricsPair {
  double off_per_sec = 0.0;
  double on_per_sec = 0.0;
  double overhead_pct() const {
    return off_per_sec <= 0.0
               ? 0.0
               : (off_per_sec - on_per_sec) / off_per_sec * 100.0;
  }
};

MetricsPair measure_metrics_pair() {
  MetricsPair pair;
  const Workload w = bulk_workload();
  {
    workload::Engine engine(sim::subsystem('F'));
    core::SearchSpace space(sim::subsystem('F'));
    core::SearchDriver driver(engine, space);
    Rng rng(1);
    pair.off_per_sec = ops_per_second(
        [&] { benchmark::DoNotOptimize(driver.measure_and_judge(w, rng)); });
  }
  {
    obs::TelemetryOptions topts;
    topts.workers = 1;
    obs::Telemetry telemetry(topts);
    workload::EngineOptions eopts;
    eopts.telemetry = obs::ProbeTelemetry(&telemetry, 0);
    workload::Engine engine(sim::subsystem('F'), eopts);
    core::SearchSpace space(sim::subsystem('F'));
    core::SearchDriver driver(engine, space);
    driver.set_telemetry(obs::ProbeTelemetry(&telemetry, 0));
    Rng rng(1);
    pair.on_per_sec = ops_per_second(
        [&] { benchmark::DoNotOptimize(driver.measure_and_judge(w, rng)); });
  }
  return pair;
}

int run_trajectory_mode(const CliArgs& args) {
  std::string path = args.get("json", "");
  if (path.empty() || path == "true") path = benchjson::kDefaultPath;

  benchjson::Section micro = measure_micro_section();

  // Telemetry's wall-clock cost, for trajectory plots.  Not gated: the
  // pair's spread on a shared runner exceeds any useful threshold, and
  // the committed baseline leaves these metrics out.
  {
    const MetricsPair pair = measure_metrics_pair();
    micro["probe_metrics_off_per_sec"] = pair.off_per_sec;
    micro["probe_metrics_on_per_sec"] = pair.on_per_sec;
    micro["probe_metrics_overhead_pct"] = pair.overhead_pct();
  }

  std::printf("hot-path micro metrics:\n");
  for (const auto& [metric, value] : micro) {
    std::printf("  %-36s %14.4g\n", metric.c_str(), value);
  }
  if (!benchjson::write_section(path, "micro", micro)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote \"micro\" section of %s\n", path.c_str());

  const std::string baseline_path = args.get("check-baseline", "");
  if (!baseline_path.empty() && baseline_path != "true") {
    const benchjson::Document baseline =
        benchjson::load_document(baseline_path);
    // The committed "micro" values are medians of five Release runs.  On a
    // shared 4-vCPU x86-64 VM, ten runs checked against those medians fell
    // as low as 0.68x after speed normalization (the uncompiled speed probe
    // alone varied 0.87-1.34x), so a 20% floor fails on noise.
    constexpr double kMicroTolerance = 0.35;
    std::printf("\nchecking against %s (>%.0f%% probes/sec regression "
                "fails)\n",
                baseline_path.c_str(), kMicroTolerance * 100.0);
    const int failures = benchjson::check_against_baseline(
        baseline, "micro", micro, kMicroTolerance);
    if (failures > 0) {
      std::printf("%d metric(s) regressed\n", failures);
      return 1;
    }
    std::printf("no regression\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("json") || args.has("check-baseline")) {
    return run_trajectory_mode(args);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
