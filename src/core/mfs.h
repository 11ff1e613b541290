// Minimal Feature Set (§5.2): the necessary conditions that make a found
// anomalous workload reproduce its anomaly.
//
// Serving two purposes exactly as in the paper:
//   * during the search, MatchMFS (Algorithm 1 line 5) skips workloads that
//     fall inside an already-known anomaly's region, avoiding redundant
//     experiments;
//   * after the search, developers read the conditions and break one of
//     them to bypass the anomaly (§7.3).
//
// Extraction is the paper's heuristic: for each feature of the witness
// workload, probe alternative values / neighbouring value regions; a feature
// whose change never breaks the anomaly is dropped, otherwise the surviving
// region becomes a condition.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/monitor.h"
#include "core/space.h"

namespace collie::core {

struct FeatureCondition {
  Feature feature = Feature::kQpType;
  bool categorical = true;
  // Categorical: values for which the anomaly persists.
  std::vector<int> allowed;
  // Numeric: inclusive range in which the anomaly persists.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  bool contains(const SearchSpace& space, const Workload& w) const;
  std::string describe(const SearchSpace& space) const;
};

struct Mfs {
  int index = 0;  // discovery order
  Symptom symptom = Symptom::kNone;
  Workload witness;
  std::vector<FeatureCondition> conditions;

  // MatchMFS: does the workload satisfy every necessary condition?
  bool matches(const SearchSpace& space, const Workload& w) const;
  std::string describe(const SearchSpace& space) const;
};

// Symmetric-overlap criterion shared by the campaign report's dedup and the
// concurrent pool's duplicate-insert accounting: two extractions explain the
// same anomaly region when they share a symptom and either MFS covers the
// other's witness.  Bare witnesses (no conditions, e.g. w/o-MFS ablation
// runs) never match workloads, so they collapse only on identical witnesses.
bool same_anomaly_region(const SearchSpace& space, const Mfs& a,
                         const Mfs& b);

// Runs workload experiments to decide whether a candidate still triggers the
// anomaly.  Returns the observed symptom and charges the experiment cost.
using ProbeFn = std::function<Symptom(const Workload&)>;

// Construct the MFS of `witness`, which exhibited `symptom`.  `probe` runs
// one experiment; extraction uses it for every necessity test.
Mfs construct_mfs(const SearchSpace& space, const Workload& witness,
                  Symptom symptom, const ProbeFn& probe);

}  // namespace collie::core
