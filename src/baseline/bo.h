// Bayesian-optimization baseline (§7.2): GP surrogate + expected-improvement
// acquisition over Collie's search space, optimizing the same ranked
// diagnostic counters as Collie and enhanced with MFS "for a fair
// comparison".
//
// The driver is core::SearchDriver::run_bayesian_optimization (declared in
// core/search.h, defined in bo.cc): every experiment goes through the
// search driver's own step, the path SA and random search take, so the
// strategies differ only in which point they measure next.
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

// Feature encoding shared with tests: log-scaled numerics and index-scaled
// categoricals, all in [0, 1].
std::vector<double> encode_workload(const core::SearchSpace& space,
                                    const Workload& w);

}  // namespace collie::baseline
