// Shared helpers for the figure benches: ground-truth labeling of search
// results against the anomaly catalog, time-to-find extraction and
// multi-seed aggregation.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/anomalies.h"
#include "common/stats.h"
#include "core/search.h"

namespace collie::benchharness {

inline catalog::Symptom to_catalog(core::Symptom s) {
  return s == core::Symptom::kPauseFrames
             ? catalog::Symptom::kPauseFrames
             : catalog::Symptom::kLowThroughput;
}

// Ground-truth anomaly id of one discovery (0 if it maps to no catalog
// row).  Mechanism labeling first (the analogue of vendor confirmation),
// region labeling as fallback.  The figure benches run the paper's
// identical pair; scenario sweeps pass the fabric the discovery ran under
// so switch-level mechanisms (ids 101+) attribute correctly.
inline int identify(const std::string& chip, const core::FoundAnomaly& f,
                    const std::string& fabric = "pair") {
  return catalog::identify(chip, fabric, f.mfs.witness, f.dominant,
                           to_catalog(f.mfs.symptom));
}

// Simulated minutes at which the N-th *distinct* anomaly was found;
// one entry per distinct anomaly, in discovery order.
inline std::vector<double> time_to_find_series(
    const core::SearchResult& r, const std::string& chip) {
  std::set<int> seen;
  std::vector<double> times;
  for (const auto& f : r.found) {
    const int id = identify(chip, f);
    if (id == 0 || seen.count(id)) continue;
    seen.insert(id);
    times.push_back(f.found_at_seconds / 60.0);
  }
  return times;
}

// Aggregate per-N mean/stddev of time-to-find over several seeds.  Seeds
// that never reach N do not contribute to N's statistics (matching the
// paper's bars, which simply end at the strategy's best count).
struct TimeToFindStats {
  // index N-1 -> times for reaching N distinct anomalies.
  std::vector<std::vector<double>> per_n;

  void add(const std::vector<double>& series) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (per_n.size() <= i) per_n.resize(i + 1);
      per_n[i].push_back(series[i]);
    }
  }
  int max_found() const { return static_cast<int>(per_n.size()); }
  double mean_at(int n) const {
    return mean(per_n[static_cast<std::size_t>(n - 1)]);
  }
  double stddev_at(int n) const {
    return stddev(per_n[static_cast<std::size_t>(n - 1)]);
  }
  int seeds_reaching(int n) const {
    return static_cast<int>(per_n[static_cast<std::size_t>(n - 1)].size());
  }
};

}  // namespace collie::benchharness
