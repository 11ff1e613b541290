// Search drivers: Collie's simulated-annealing search (Algorithm 1), the
// random-input baseline of §7.2 and the Bayesian-optimization baseline
// (baseline/bo.h).  Every probe of every strategy goes through one
// SearchDriver::step: Engine::run, the monitor's verdict, the trace point,
// MatchMFS and MFS extraction.
//
// Counter guidance (§5.1): performance counters are driven to LOW value
// regions and diagnostic counters to HIGH value regions.  The energy deltas
// are the paper's (B-A)/A for performance counters and (A-B)/B for
// diagnostic counters, which sidesteps opaque absolute value ranges.
//
// Time accounting is in *simulated testbed seconds*: every experiment costs
// 20-60 s (sim::experiment_cost_seconds), and searches run against a wall
// budget, 10 hours in the paper's Figure 4/5 runs.
#pragma once

#include <vector>

#include "core/mfs.h"
#include "core/mfs_store.h"
#include "core/monitor.h"
#include "core/space.h"
#include "obs/telemetry.h"
#include "workload/engine.h"

namespace collie::core {

enum class GuidanceMode {
  kPerf,  // Collie (Perf): general, every RNIC exposes these
  kDiag,  // Collie (Diag): vendor diagnostic counters
};

const char* to_string(GuidanceMode m);

struct FoundAnomaly {
  Mfs mfs;
  Verdict verdict;
  double found_at_seconds = 0.0;
  int experiment_index = 0;
  // Ground-truth mechanism of the witness measurement (for evaluation
  // bookkeeping only; plays the role of the paper's vendor confirmation).
  sim::Bottleneck dominant = sim::Bottleneck::kNone;
};

// One point of the Figure-6-style trace: the diagnostic counter value seen
// by the search over time, with anomaly-discovery marks and the flat
// stretches of MFS extraction.
struct TracePoint {
  double t_seconds = 0.0;
  double counter_value = 0.0;       // the counter currently being optimized
  double rx_wqe_cache_miss = 0.0;   // the counter Figure 6 plots
  bool anomaly_found = false;
  bool in_mfs_extraction = false;
};

struct SearchResult {
  std::vector<FoundAnomaly> found;
  std::vector<TracePoint> trace;
  double elapsed_seconds = 0.0;
  int experiments = 0;
  int mfs_skips = 0;  // MatchMFS hits (Algorithm 1 line 5)
};

struct SearchBudget {
  double seconds = 10 * 3600.0;  // the paper's 10-hour runs
  int max_experiments = 1 << 30;
};

// Counter ranking (§7.2): the number of random probes SA and BO spend on
// ranking the diagnostic counters by coefficient of variation.
inline constexpr int kRankingProbes = 10;

struct SaConfig {
  GuidanceMode mode = GuidanceMode::kDiag;
  bool use_mfs = true;  // false = the "Collie w/o MFS" ablation
};

class SearchDriver {
 public:
  SearchDriver(const workload::Engine& engine, const SearchSpace& space,
               AnomalyMonitor monitor = AnomalyMonitor{});

  // Collie / Collie w/o MFS (Algorithm 1).  Without an explicit store the
  // run owns a fresh LocalMfsStore (the paper's per-run behaviour); pass a
  // store to share MFS knowledge across runs — the campaign orchestrator
  // injects a view onto its concurrent pool here.  RNG consumption is
  // independent of the store's contents' origin, so a single-worker campaign
  // replays a serial run exactly.
  SearchResult run_simulated_annealing(const SaConfig& config,
                                       const SearchBudget& budget, Rng& rng);
  SearchResult run_simulated_annealing(const SaConfig& config,
                                       const SearchBudget& budget, Rng& rng,
                                       MfsStore& store);

  // Random-input generation over the same search space (black-box fuzzing
  // baseline; finds only simple-condition anomalies, §7.2), with MatchMFS
  // skips and MFS extraction.
  SearchResult run_random(const SearchBudget& budget, Rng& rng);
  SearchResult run_random(const SearchBudget& budget, Rng& rng,
                          MfsStore& store);

  // The Bayesian-optimization baseline (baseline/bo.h, which defines it):
  // a GP surrogate over the SA driver's ranked diagnostic counters, with
  // MFS, on a fresh LocalMfsStore.
  SearchResult run_bayesian_optimization(const SearchBudget& budget, Rng& rng);

  // Single-shot: measure one workload and judge it (used by the examples
  // and the §7.3 prevention workflow).
  Verdict measure_and_judge(const Workload& w, Rng& rng,
                            double* cost_seconds = nullptr) const;

  // Attach a telemetry handle (worker-sharded).  Off by default; when off,
  // every instrumentation point costs one pointer test.  Telemetry never
  // touches the RNG or the simulated-time accounting, so results are
  // bit-identical with it on or off.
  void set_telemetry(obs::ProbeTelemetry telemetry) { tel_ = telemetry; }

 private:
  struct RunState {
    explicit RunState(MfsStore& s) : store(&s) {}
    SearchResult result;
    MfsStore* store;  // MatchMFS backend; never null
    double elapsed = 0.0;
    bool exhausted(const SearchBudget& b) const {
      return elapsed >= b.seconds ||
             result.experiments >= b.max_experiments;
    }
  };

  // Measure with bookkeeping: charges cost, appends trace, detects anomaly,
  // extracts MFS (when enabled) and restarts are left to the caller.
  // Returns the verdict and the measurement's averaged counters.
  Verdict step(const Workload& w, Rng& rng, RunState& state, bool use_mfs,
               sim::CounterSample* counters_out);

  // Diagnostic-counter indices in decreasing coefficient of variation over
  // `probes` (§7.2): the phase order of SA (Diag) and BO.
  static std::vector<int> rank_diag_counters(
      const std::vector<sim::CounterSample>& probes);

  const workload::Engine& engine_;
  const SearchSpace& space_;
  AnomalyMonitor monitor_;
  obs::ProbeTelemetry tel_;
  // Per-driver evaluation buffers, reused across every probe of a run so the
  // steady-state measurement path performs no heap allocations.  A driver is
  // single-threaded state (each campaign cell owns its own); mutable because
  // measure_and_judge() is logically const.  meas_ is the engine's in-place
  // Measurement target; probe_meas_ is a separate target for the necessity
  // probes inside MFS extraction, which run while the step's own
  // measurement is still live.
  mutable sim::EvalScratch scratch_;
  mutable workload::Measurement meas_;
  mutable workload::Measurement probe_meas_;
};

}  // namespace collie::core
