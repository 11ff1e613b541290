// Bayesian-optimization baseline (§7.2): GP surrogate + expected-improvement
// acquisition over Collie's search space, optimizing the same ranked
// diagnostic counters as Collie and enhanced with MFS "for a fair
// comparison".
//
// The paper's finding — BO barely improves on random because the counter
// response is non-smooth across discrete dimensions (QP type, opcode...) —
// emerges here from the same cause: categorical features enter the GP as
// scaled indices, so one step in QP type looks like a tiny move in feature
// space but lands in a wildly different response regime.
#pragma once

#include <vector>

#include "core/search.h"

namespace collie::baseline {

struct BoConfig {
  bool use_mfs = true;
  int ranking_probes = 10;   // same diagnostic-counter ranking as Collie
  // Budget fraction the ranking probes may spend.  An anomaly found while
  // probing triggers MFS extraction worth dozens of experiments; uncapped,
  // that regularly consumed the whole short-budget run before any guidance.
  double ranking_budget_fraction = 0.2;
  int min_design = 4;        // observations required before the GP takes over
  int candidates = 192;      // EI candidate pool per iteration
  int gp_window = 96;        // sliding window on GP observations
};

core::SearchResult run_bayesian_optimization(
    const workload::Engine& engine, const core::SearchSpace& space,
    const core::AnomalyMonitor& monitor, const BoConfig& config,
    const core::SearchBudget& budget, Rng& rng);

// Feature encoding shared with tests: log-scaled numerics and index-scaled
// categoricals, all in [0, 1].
std::vector<double> encode_workload(const core::SearchSpace& space,
                                    const Workload& w);

}  // namespace collie::baseline
