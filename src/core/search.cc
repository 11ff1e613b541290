#include "core/search.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/stats.h"

namespace collie::core {

const char* to_string(GuidanceMode m) {
  switch (m) {
    case GuidanceMode::kPerf:
      return "Perf";
    case GuidanceMode::kDiag:
      return "Diag";
  }
  return "?";
}

namespace {

// The counter being optimized during one SA phase.
struct CounterRef {
  bool perf = false;
  int index = 0;  // PerfCounter or DiagCounter index

  double value(const sim::CounterSample& s) const {
    return perf ? s.perf[static_cast<std::size_t>(index)]
                : s.diag[static_cast<std::size_t>(index)];
  }
  const char* name() const {
    return perf ? sim::name(static_cast<sim::PerfCounter>(index))
                : sim::name(static_cast<sim::DiagCounter>(index));
  }
};

// The annealing schedule (§5.1): start at kT0, cool by kAlpha after every
// kItersPerTemperature proposals, and jump to a fresh point instead of
// freezing below kTMin.  kAlpha is deliberately relaxed: keep jumping.
constexpr double kT0 = 1.0;
constexpr double kTMin = 0.05;
constexpr double kAlpha = 0.85;
constexpr int kItersPerTemperature = 6;

// Guarded increment of one well-known probe counter; a single branch when
// telemetry is off.
inline void bump(const obs::ProbeTelemetry& tel,
                 obs::CounterId obs::ProbeIds::* field, i64 delta = 1) {
  if (tel.enabled()) tel.add(tel.probe_ids().*field, delta);
}

}  // namespace

SearchDriver::SearchDriver(const workload::Engine& engine,
                           const SearchSpace& space, AnomalyMonitor monitor)
    : engine_(engine), space_(space), monitor_(std::move(monitor)) {}

Verdict SearchDriver::measure_and_judge(const Workload& w, Rng& rng,
                                        double* cost_seconds) const {
  const u64 t_eval = tel_.begin();
  const workload::Measurement& m = engine_.run(w, rng, scratch_, meas_);
  tel_.end_stage(obs::ProbeStage::kEvaluate, t_eval);
  if (cost_seconds != nullptr) *cost_seconds = m.cost_seconds;
  const u64 t_judge = tel_.begin();
  const Verdict v = monitor_.judge(m);
  tel_.end_stage(obs::ProbeStage::kMonitor, t_judge);
  bump(tel_, &obs::ProbeIds::experiments);
  if (v.anomalous()) bump(tel_, &obs::ProbeIds::anomalies);
  return v;
}

Verdict SearchDriver::step(const Workload& w, Rng& rng, RunState& state,
                           bool use_mfs, sim::CounterSample* counters_out) {
  const u64 t_eval = tel_.begin();
  const workload::Measurement& m = engine_.run(w, rng, scratch_, meas_);
  tel_.end_stage(obs::ProbeStage::kEvaluate, t_eval);
  state.elapsed += m.cost_seconds;
  state.result.experiments += 1;
  bump(tel_, &obs::ProbeIds::experiments);
  const u64 t_judge = tel_.begin();
  const Verdict v = monitor_.judge(m);
  tel_.end_stage(obs::ProbeStage::kMonitor, t_judge);
  if (counters_out != nullptr) *counters_out = m.average;

  TracePoint tp;
  tp.t_seconds = state.elapsed;
  tp.rx_wqe_cache_miss =
      m.average.get(sim::DiagCounter::kRxWqeCacheMiss);
  tp.counter_value = tp.rx_wqe_cache_miss;  // callers may overwrite
  tp.anomaly_found = false;
  state.result.trace.push_back(tp);

  if (!v.anomalous()) return v;
  bump(tel_, &obs::ProbeIds::anomalies);

  // Already covered by a known anomaly's region?  Then it is not new.
  // Under a shared store "known" includes other workers' extractions, so a
  // region explained anywhere in the campaign is extracted only once.  The
  // w/o-MFS ablation must keep recording everything even if the injected
  // store was pre-seeded (e.g. a warm-started campaign).
  if (use_mfs) {
    const u64 t_match = tel_.begin();
    const bool covered = state.store->covers(space_, w);
    tel_.end_stage(obs::ProbeStage::kMatchMfs, t_match);
    if (covered) return v;
  }

  FoundAnomaly found;
  found.verdict = v;
  found.found_at_seconds = state.elapsed;
  found.experiment_index = state.result.experiments;
  found.dominant = m.dominant;

  const Symptom symptom =
      v.symptom == Symptom::kPauseFrames ? Symptom::kPauseFrames
                                         : Symptom::kLowThroughput;
  if (use_mfs) {
    // ConstructMFS (Algorithm 1 line 15): each necessity probe is a real
    // experiment; the Figure-6 trace shows them as a flat stretch.
    const double flat = state.result.trace.back().rx_wqe_cache_miss;
    auto probe = [&](const Workload& candidate) -> Symptom {
      // A necessity probe that lands inside a pre-loaded region is already
      // explained: the loaded MFS asserts the anomaly persists there, so
      // answer from the checkpoint instead of spending an experiment
      // (warm-started runs re-probe nothing a previous campaign covered).
      if (state.store->covers_preloaded(space_, candidate)) {
        state.result.mfs_skips += 1;
        bump(tel_, &obs::ProbeIds::mfs_skips);
        return symptom;
      }
      // Necessity probes write into probe_meas_, not meas_: the step's own
      // measurement is still live across the extraction.  They read only
      // the verdict, so they ask the engine for nothing more.
      const workload::Measurement& pm = engine_.run(
          candidate, rng, scratch_, probe_meas_, &monitor_.config().pause);
      state.elapsed += pm.cost_seconds;
      state.result.experiments += 1;
      bump(tel_, &obs::ProbeIds::experiments);
      TracePoint ptp;
      ptp.t_seconds = state.elapsed;
      ptp.counter_value = flat;
      ptp.rx_wqe_cache_miss = flat;
      ptp.in_mfs_extraction = true;
      state.result.trace.push_back(ptp);
      const Verdict pv = monitor_.judge(pm);
      return pv.symptom;
    };
    const u64 t_extract = tel_.begin();
    Mfs mfs = construct_mfs(space_, w, symptom, probe);
    mfs.index = state.store->insert(space_, mfs);
    tel_.end_stage(obs::ProbeStage::kExtract, t_extract);
    bump(tel_, &obs::ProbeIds::mfs_extracted);
    found.mfs = std::move(mfs);
  } else {
    Mfs bare;
    bare.index = static_cast<int>(state.result.found.size());
    bare.symptom = symptom;
    bare.witness = w;
    found.mfs = std::move(bare);
  }
  // Mark the discovery on the trace.
  state.result.trace.back().anomaly_found = true;
  state.result.found.push_back(std::move(found));
  return v;
}

std::vector<int> SearchDriver::rank_diag_counters(
    const std::vector<sim::CounterSample>& probes) {
  std::vector<std::pair<double, int>> ranked;
  for (int d = 0; d < sim::kNumDiagCounters; ++d) {
    RunningStat rs;
    for (const auto& p : probes) {
      rs.add(p.diag[static_cast<std::size_t>(d)]);
    }
    ranked.emplace_back(rs.cov(), d);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int> order;
  order.reserve(ranked.size());
  for (const auto& entry : ranked) order.push_back(entry.second);
  return order;
}

SearchResult SearchDriver::run_random(const SearchBudget& budget, Rng& rng) {
  LocalMfsStore store;
  return run_random(budget, rng, store);
}

SearchResult SearchDriver::run_random(const SearchBudget& budget, Rng& rng,
                                      MfsStore& store) {
  RunState state(store);
  int consecutive_skips = 0;
  while (!state.exhausted(budget)) {
    const u64 t_sample = tel_.begin();
    const Workload w = space_.random_point(rng);
    tel_.end_stage(obs::ProbeStage::kSample, t_sample);
    const u64 t_match = tel_.begin();
    const bool covered = state.store->covers(space_, w);
    tel_.end_stage(obs::ProbeStage::kMatchMfs, t_match);
    if (covered) {
      state.result.mfs_skips += 1;
      bump(tel_, &obs::ProbeIds::mfs_skips);
      // Skips are free, but bound them: 10000 consecutive covered samples
      // mean the reachable space is explained by known regions, and the run
      // ends rather than measuring inside one (a warm-started campaign must
      // spend zero probes in loaded regions).
      if (++consecutive_skips >= 10000) break;
      continue;
    }
    consecutive_skips = 0;
    step(w, rng, state, /*use_mfs=*/true, nullptr);
  }
  state.result.elapsed_seconds = state.elapsed;
  return state.result;
}

SearchResult SearchDriver::run_simulated_annealing(const SaConfig& config,
                                                   const SearchBudget& budget,
                                                   Rng& rng) {
  LocalMfsStore store;
  return run_simulated_annealing(config, budget, rng, store);
}

SearchResult SearchDriver::run_simulated_annealing(const SaConfig& config,
                                                   const SearchBudget& budget,
                                                   Rng& rng, MfsStore& store) {
  RunState state(store);

  // Sampled points (ranking probes, phase starts, restarts) bypass the full
  // MatchMFS skip by design — they double as energy baselines — but never a
  // *pre-loaded* region: a warm-started run spends zero experiments inside
  // regions a previous campaign already explained.  On a fresh store
  // covers_preloaded is constant-false and the draws below are bit-exact
  // with the seed behaviour.
  auto warm_covered = [&](const Workload& w) {
    if (!config.use_mfs) return false;
    if (!state.store->covers_preloaded(space_, w)) return false;
    state.result.mfs_skips += 1;
    bump(tel_, &obs::ProbeIds::mfs_skips);
    return true;
  };
  // Sample outside every pre-loaded region; false when 10000 consecutive
  // draws all land inside one (the reachable space is already explained and
  // the caller should stop instead of measuring a known region).
  auto sample_fresh = [&](Workload* out) {
    for (int tries = 0; tries < 10000; ++tries) {
      Workload w = space_.random_point(rng);
      if (!warm_covered(w)) {
        *out = std::move(w);
        return true;
      }
    }
    return false;
  };
  bool space_explained = false;

  // ---- Build the counter schedule ----
  std::vector<CounterRef> schedule;
  if (config.mode == GuidanceMode::kPerf) {
    schedule.push_back(
        {true, static_cast<int>(sim::PerfCounter::kRxGoodputBps)});
    schedule.push_back({true, static_cast<int>(sim::PerfCounter::kRxPps)});
  } else {
    // Rank the diagnostic counters by coefficient of variation over a few
    // random probes (§7.2) and optimize them in decreasing order.
    std::vector<sim::CounterSample> probes;
    for (int i = 0; i < kRankingProbes && !state.exhausted(budget); ++i) {
      Workload w = space_.random_point(rng);
      if (warm_covered(w)) continue;
      sim::CounterSample cs;
      step(w, rng, state, config.use_mfs, &cs);
      probes.push_back(cs);
    }
    for (const int d : rank_diag_counters(probes)) {
      schedule.push_back({false, d});
    }
  }
  if (schedule.empty()) {
    state.result.elapsed_seconds = state.elapsed;
    return state.result;
  }

  // ---- One SA phase per counter, splitting the remaining budget ----
  for (std::size_t ci = 0; ci < schedule.size() && !state.exhausted(budget) &&
                           !space_explained;
       ++ci) {
    const CounterRef counter = schedule[ci];
    const double remaining = budget.seconds - state.elapsed;
    const double deadline =
        state.elapsed +
        remaining / static_cast<double>(schedule.size() - ci);

    auto energy_delta = [&](double a, double b) {
      // Perf counters are minimized: dE = (B - A) / A.
      // Diag counters are maximized: dE = (A - B) / B.
      if (counter.perf) return (b - a) / std::max(a, 1e-9);
      return (a - b) / std::max(b, 1e-9);
    };

    // Measure an initial random point (Algorithm 1 line 1).
    Workload p_old;
    if (!sample_fresh(&p_old)) {
      space_explained = true;
      break;
    }
    sim::CounterSample cs_old;
    Verdict v = step(p_old, rng, state, config.use_mfs, &cs_old);
    double e_old = counter.value(cs_old);
    state.result.trace.back().counter_value = e_old;

    double temperature = kT0;
    int consecutive_skips = 0;
    while (state.elapsed < deadline && !state.exhausted(budget) &&
           !space_explained) {
      for (int i = 0;
           i < kItersPerTemperature && state.elapsed < deadline &&
           !state.exhausted(budget) && !space_explained;
           ++i) {
        const u64 t_sample = tel_.begin();
        Workload p_new = space_.mutate(p_old, rng);
        tel_.end_stage(obs::ProbeStage::kSample, t_sample);
        if (config.use_mfs) {
          const u64 t_match = tel_.begin();
          const bool covered = state.store->covers(space_, p_new);
          tel_.end_stage(obs::ProbeStage::kMatchMfs, t_match);
          if (covered) {
            state.result.mfs_skips += 1;
            bump(tel_, &obs::ProbeIds::mfs_skips);
            // Optimizing the counter tends to pull the walk back INTO known
            // anomaly regions; when the neighbourhood is exhausted, restart
            // from a fresh point instead of orbiting the border.
            if (++consecutive_skips >= 24) {
              consecutive_skips = 0;
              if (!sample_fresh(&p_old)) {
                space_explained = true;
                break;
              }
              sim::CounterSample cs;
              v = step(p_old, rng, state, config.use_mfs, &cs);
              e_old = counter.value(cs);
              state.result.trace.back().counter_value = e_old;
            }
            continue;  // MatchMFS: skip without spending an experiment
          }
          consecutive_skips = 0;
        }
        sim::CounterSample cs_new;
        v = step(p_new, rng, state, config.use_mfs, &cs_new);
        const double e_new = counter.value(cs_new);
        state.result.trace.back().counter_value = e_new;

        if (v.anomalous() && config.use_mfs) {
          // Restart from a fresh random point (Algorithm 1 line 17).
          if (!sample_fresh(&p_old)) {
            space_explained = true;
            break;
          }
          if (state.exhausted(budget)) break;
          step(p_old, rng, state, config.use_mfs, &cs_old);
          e_old = counter.value(cs_old);
          state.result.trace.back().counter_value = e_old;
          continue;
        }

        const double de = energy_delta(e_old, e_new);
        if (de < 0.0 ||
            rng.uniform() < std::exp(-de / std::max(temperature, 1e-6))) {
          p_old = p_new;
          e_old = e_new;
        }
      }
      temperature *= kAlpha;
      if (temperature < kTMin) {
        // Relaxed schedule (§5.1): jump out instead of freezing, so the
        // search keeps exploring for *all* anomalies, not one optimum.
        temperature = kT0;
        p_old = space_.random_point(rng);
        if (!state.exhausted(budget) && state.elapsed < deadline) {
          step(p_old, rng, state, config.use_mfs, &cs_old);
          e_old = counter.value(cs_old);
          state.result.trace.back().counter_value = e_old;
        }
      }
    }
    LOG_DEBUG << "SA phase over counter " << counter.name() << " done at t="
              << state.elapsed;
  }

  state.result.elapsed_seconds = state.elapsed;
  return state.result;
}

}  // namespace collie::core
