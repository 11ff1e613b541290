#include "nic/cache.h"

#include <algorithm>

#include "common/pmath.h"

namespace collie::nic {

CacheModel::CacheModel(double entries, double sharpness)
    : entries_(std::max(entries, 1.0)), sharpness_(std::max(sharpness, 0.1)) {}

double CacheModel::miss_ratio(double working_set) const {
  if (working_set <= 0.0) return 0.0;
  if (working_set <= entries_) {
    // Conflict-miss floor: a handful of associativity misses even while
    // the working set fits.  Performance-irrelevant, but it is the smooth
    // sub-capacity signal the diagnostic counters expose — the gradient
    // Collie's search climbs before the anomaly fires (§7.2).
    return 0.002 * working_set / entries_;
  }
  // Ideal capacity miss ratio is 1 - capacity/working_set; sharpness > 1
  // softens the knee (prefetching hides part of the overflow at first).
  const double ideal = 1.0 - entries_ / working_set;
  return std::clamp(pmath::pow(ideal, sharpness_), 0.002, 1.0);
}

double CacheModel::burst_miss_ratio(double working_set, double burst,
                                    double prefetch_window) const {
  // A consumption burst of `burst` entries while the prefetcher only holds
  // `prefetch_window` warm entries inflates the instantaneous working set:
  // the tail of the burst always misses.
  const double burst_over =
      std::max(0.0, burst - prefetch_window) / std::max(burst, 1.0);
  const double steady = miss_ratio(working_set);
  return std::clamp(steady + (1.0 - steady) * burst_over, 0.0, 1.0);
}

}  // namespace collie::nic
