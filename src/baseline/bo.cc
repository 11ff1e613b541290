#include "baseline/bo.h"

#include <algorithm>
#include <cmath>

#include "baseline/gp.h"
#include "common/stats.h"

namespace collie::baseline {
namespace {

using core::Mfs;
using core::Symptom;
using core::TracePoint;
using core::Verdict;

double log_scale(double v, double lo, double hi) {
  v = std::clamp(v, lo, hi);
  return (std::log(v) - std::log(lo)) / (std::log(hi) - std::log(lo));
}

// Shared bookkeeping for measured experiments (mirrors the Collie driver's
// accounting so Figure 4 compares like with like).
struct BoState {
  core::SearchResult result;
  core::LocalMfsStore mfs_store;
  // Evaluation buffers reused across every probe of this run.
  sim::EvalScratch scratch;
  // One Measurement reused across probes (the engine's in-place overload
  // keeps its buffer capacities, so steady-state probes allocate nothing
  // regardless of which backend executes them).
  workload::Measurement probe_out;
  double elapsed = 0.0;

  bool exhausted(const core::SearchBudget& b) const {
    return elapsed >= b.seconds || result.experiments >= b.max_experiments;
  }
};

Verdict measure(const workload::Engine& engine,
                const core::SearchSpace& space,
                const core::AnomalyMonitor& monitor, const Workload& w,
                bool use_mfs, Rng& rng, BoState& state,
                sim::CounterSample* counters_out) {
  const workload::Measurement& m =
      engine.run(w, rng, state.scratch, state.probe_out);
  state.elapsed += m.cost_seconds;
  state.result.experiments += 1;
  const Verdict v = monitor.judge(m);
  if (counters_out != nullptr) *counters_out = m.average;

  TracePoint tp;
  tp.t_seconds = state.elapsed;
  tp.rx_wqe_cache_miss = m.average.get(sim::DiagCounter::kRxWqeCacheMiss);
  tp.counter_value = tp.rx_wqe_cache_miss;
  state.result.trace.push_back(tp);

  if (!v.anomalous()) return v;
  if (use_mfs && state.mfs_store.covers(space, w)) return v;

  core::FoundAnomaly found;
  found.verdict = v;
  found.found_at_seconds = state.elapsed;
  found.experiment_index = state.result.experiments;
  found.dominant = m.dominant;
  const Symptom symptom = v.symptom;
  if (use_mfs) {
    auto probe = [&](const Workload& candidate) -> Symptom {
      const workload::Measurement& pm =
          engine.run(candidate, rng, state.scratch, state.probe_out,
                     &monitor.config().pause);
      state.elapsed += pm.cost_seconds;
      state.result.experiments += 1;
      TracePoint ptp;
      ptp.t_seconds = state.elapsed;
      ptp.counter_value = state.result.trace.back().counter_value;
      ptp.rx_wqe_cache_miss = ptp.counter_value;
      ptp.in_mfs_extraction = true;
      state.result.trace.push_back(ptp);
      return monitor.judge(pm).symptom;
    };
    Mfs mfs = core::construct_mfs(space, w, symptom, probe);
    mfs.index = state.mfs_store.insert(space, mfs);
    found.mfs = std::move(mfs);
  } else {
    Mfs bare;
    bare.symptom = symptom;
    bare.witness = w;
    found.mfs = std::move(bare);
  }
  state.result.trace.back().anomaly_found = true;
  state.result.found.push_back(std::move(found));
  return v;
}

}  // namespace

std::vector<double> encode_workload(const core::SearchSpace& space,
                                    const Workload& w) {
  std::vector<double> x;
  const auto& cfg = space.config();
  // Categorical features as scaled indices — the encoding [31]-style BO
  // ends up with, and the root of its trouble on this space.
  for (core::Feature f :
       {core::Feature::kQpType, core::Feature::kOpcode,
        core::Feature::kDirection, core::Feature::kLoopback,
        core::Feature::kPatternMix}) {
    const auto alts = space.categorical_alternatives(f);
    const double card = std::max<std::size_t>(alts.size(), 2);
    x.push_back(space.categorical_value(w, f) / (card - 1.0));
  }
  x.push_back(log_scale(w.num_qps, 1, cfg.max_qps));
  x.push_back(log_scale(w.wqe_batch, 1, cfg.max_wqe_batch));
  x.push_back(static_cast<double>(w.sge_per_wqe - 1) /
              std::max(1, cfg.max_sge - 1));
  x.push_back(log_scale(w.send_wq_depth, cfg.min_wq_depth,
                        cfg.max_wq_depth));
  x.push_back(log_scale(w.recv_wq_depth, cfg.min_wq_depth,
                        cfg.max_wq_depth));
  x.push_back(log_scale(w.mrs_per_qp, 1, cfg.max_mrs_per_qp));
  x.push_back(log_scale(static_cast<double>(w.mr_size),
                        static_cast<double>(cfg.min_mr_size),
                        static_cast<double>(cfg.max_mr_size)));
  x.push_back(log_scale(w.mtu, 256, 4096));
  x.push_back(log_scale(std::max(1.0, analyze_pattern(w).avg_msg_bytes), 64,
                        4.0 * MiB));
  return x;
}

core::SearchResult run_bayesian_optimization(
    const workload::Engine& engine, const core::SearchSpace& space,
    const core::AnomalyMonitor& monitor, const BoConfig& config,
    const core::SearchBudget& budget, Rng& rng) {
  BoState state;

  // Every measurement feeds one shared GP design (sliding window): the
  // ranking probes and earlier phases are real observations of all nine
  // counters, so later phases start guided instead of re-seeding from
  // scratch.  The seed re-drew a fresh random design per phase, which —
  // together with MFS-extraction costs — routinely consumed every phase
  // deadline before a single EI-selected candidate was measured, leaving
  // the "BO" rows byte-identical to plain random search.
  std::vector<std::vector<double>> design_xs;
  std::vector<sim::CounterSample> design_cs;
  std::vector<Workload> design_ws;
  auto record = [&](const Workload& w, const sim::CounterSample& cs) {
    design_xs.push_back(encode_workload(space, w));
    design_cs.push_back(cs);
    design_ws.push_back(w);
    if (static_cast<int>(design_xs.size()) > config.gp_window) {
      design_xs.erase(design_xs.begin());
      design_cs.erase(design_cs.begin());
      design_ws.erase(design_ws.begin());
    }
  };

  // Rank diagnostic counters exactly like Collie (§7.2), but never let the
  // probes (plus any extraction they trigger) eat more than a slice of the
  // budget.
  std::vector<sim::CounterSample> probes;
  const double ranking_deadline =
      budget.seconds * config.ranking_budget_fraction;
  for (int i = 0; i < config.ranking_probes && !state.exhausted(budget) &&
                  state.elapsed < ranking_deadline;
       ++i) {
    const Workload w = space.random_point(rng);
    sim::CounterSample cs;
    measure(engine, space, monitor, w, config.use_mfs, rng, state, &cs);
    record(w, cs);
    probes.push_back(cs);
  }
  std::vector<std::pair<double, int>> ranked;
  for (int d = 0; d < sim::kNumDiagCounters; ++d) {
    RunningStat rs;
    for (const auto& p : probes) rs.add(p.diag[static_cast<std::size_t>(d)]);
    ranked.emplace_back(rs.cov(), d);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (std::size_t ci = 0; ci < ranked.size() && !state.exhausted(budget);
       ++ci) {
    const int counter = ranked[ci].second;
    const double deadline =
        state.elapsed + (budget.seconds - state.elapsed) /
                            static_cast<double>(ranked.size() - ci);

    auto observe = [&](const Workload& w) {
      sim::CounterSample cs;
      measure(engine, space, monitor, w, config.use_mfs, rng, state, &cs);
      state.result.trace.back().counter_value =
          cs.diag[static_cast<std::size_t>(counter)];
      record(w, cs);
    };
    // The phase's targets come from the shared design.
    auto phase_ys = [&] {
      std::vector<double> ys;
      ys.reserve(design_cs.size());
      for (const auto& cs : design_cs) {
        ys.push_back(cs.diag[static_cast<std::size_t>(counter)]);
      }
      return ys;
    };

    // Top up the design with random points only until the GP has enough to
    // fit; phases after the first usually start guided immediately.
    while (static_cast<int>(design_xs.size()) < config.min_design &&
           state.elapsed < deadline && !state.exhausted(budget)) {
      observe(space.random_point(rng));
    }

    GaussianProcess gp;
    int consecutive_skips = 0;
    while (state.elapsed < deadline && !state.exhausted(budget)) {
      const std::vector<double> ys = phase_ys();
      Workload next;
      bool guided = false;
      if (static_cast<int>(design_xs.size()) >= config.min_design &&
          gp.fit(design_xs, ys)) {
        // Candidate pool: random exploration plus mutations of the best
        // observed workload; pick the expected-improvement maximizer among
        // candidates MatchMFS does not already explain.  The seed scored
        // covered candidates too and then silently measured a fresh random
        // point instead — the EI choice never reached the engine.  Mutations
        // grow from the best *unexplained* observation: the global best is
        // usually inside an extracted MFS region, and orbiting its border
        // only produces skips.
        std::size_t best_idx = static_cast<std::size_t>(
            std::max_element(ys.begin(), ys.end()) - ys.begin());
        if (config.use_mfs) {
          double best_y = -1e300;
          std::size_t best_uncovered = design_ws.size();
          for (std::size_t i = 0; i < design_ws.size(); ++i) {
            if (ys[i] > best_y && !state.mfs_store.covers(space, design_ws[i])) {
              best_y = ys[i];
              best_uncovered = i;
            }
          }
          if (best_uncovered < design_ws.size()) best_idx = best_uncovered;
        }
        double best_ei = -1.0;
        bool any_filtered = false;
        for (int c = 0; c < config.candidates; ++c) {
          const Workload cand = (c % 2 == 0)
                                    ? space.random_point(rng)
                                    : space.mutate(design_ws[best_idx], rng);
          if (config.use_mfs && state.mfs_store.covers(space, cand)) {
            any_filtered = true;
            continue;
          }
          double mu = 0.0;
          double sigma = 0.0;
          gp.predict(encode_workload(space, cand), &mu, &sigma);
          const double ei =
              expected_improvement(mu, sigma, gp.best_observed());
          if (ei > best_ei) {
            best_ei = ei;
            next = cand;
            guided = true;
          }
        }
        // One measurement opportunity was pruned by MatchMFS, however many
        // candidates fell to it — keeps the skip stat comparable with the
        // once-per-point accounting of run_random and the SA driver.
        if (any_filtered) state.result.mfs_skips += 1;
      }
      if (!guided) {
        next = space.random_point(rng);
        // Random fallback skips are free but bounded, like run_random.
        if (config.use_mfs && consecutive_skips < 10000 &&
            state.mfs_store.covers(space, next)) {
          state.result.mfs_skips += 1;
          ++consecutive_skips;
          continue;
        }
      }
      consecutive_skips = 0;
      observe(next);
    }
  }

  state.result.elapsed_seconds = state.elapsed;
  return state.result;
}

}  // namespace collie::baseline
