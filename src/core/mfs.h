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

#include <array>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/monitor.h"
#include "core/space.h"

namespace collie::core {

// A workload's value of every feature, each derived once: its
// categorical_value (as a double) for a categorical feature, its
// numeric_value for a numeric one.  Matching conditions against a row reads
// the values contains(space, w) would derive, without re-deriving them (the
// message size runs analyze_pattern) for every condition checked.
using FeatureRow = std::array<double, kNumFeatures>;
FeatureRow feature_row(const SearchSpace& space, const Workload& w);

struct FeatureCondition {
  Feature feature = Feature::kQpType;
  bool categorical = true;
  // Categorical: values for which the anomaly persists.
  std::vector<int> allowed;
  // Numeric: inclusive range in which the anomaly persists.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  bool contains(const SearchSpace& space, const Workload& w) const;
  bool contains(const FeatureRow& row) const {
    return admits(row[static_cast<std::size_t>(feature)]);
  }
  std::string describe(const SearchSpace& space) const;

 private:
  // Does the feature's value `v` (a categorical value as a double) satisfy
  // the condition?
  bool admits(double v) const;
};

struct Mfs {
  int index = 0;  // discovery order
  Symptom symptom = Symptom::kNone;
  Workload witness;
  std::vector<FeatureCondition> conditions;

  // MatchMFS: does the workload satisfy every necessary condition?
  bool matches(const SearchSpace& space, const Workload& w) const;
  // MatchMFS against the witness's feature row.
  bool matches(const FeatureRow& row) const;
  std::string describe(const SearchSpace& space) const;
};

// Symmetric-overlap criterion shared by the campaign report's dedup and the
// concurrent pool's duplicate-insert accounting: two extractions explain the
// same anomaly region when they share a symptom and either MFS covers the
// other's witness.  Bare witnesses (no conditions, e.g. w/o-MFS ablation
// runs) never match workloads, so they collapse only on identical witnesses.
bool same_anomaly_region(const SearchSpace& space, const Mfs& a,
                         const Mfs& b);
// The same criterion, given each witness's feature row (feature_row of
// a.witness and b.witness).
bool same_anomaly_region(const Mfs& a, const FeatureRow& a_row, const Mfs& b,
                         const FeatureRow& b_row);

// Runs workload experiments to decide whether a candidate still triggers the
// anomaly.  Returns the observed symptom and charges the experiment cost.
using ProbeFn = std::function<Symptom(const Workload&)>;

// Construct the MFS of `witness`, which exhibited `symptom`.  `probe` runs
// one experiment; extraction uses it for every necessity test.
Mfs construct_mfs(const SearchSpace& space, const Workload& witness,
                  Symptom symptom, const ProbeFn& probe);

}  // namespace collie::core
