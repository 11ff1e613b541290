#include "core/mfs.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace collie::core {
namespace {

// Probes per side for numeric features ("we just do a few tests on each
// dimension", §5.2).
constexpr int kMaxNumericProbes = 2;
// Cap on probed alternatives for high-cardinality categorical features
// (memory placements on GPU-rich hosts).
constexpr int kMaxCategoricalProbes = 3;

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a) + std::fabs(b));
}

std::string fmt_value(Feature f, double v) {
  if (f == Feature::kMrSize || f == Feature::kMsgSize) {
    return format_bytes(static_cast<u64>(v));
  }
  std::ostringstream os;
  if (f == Feature::kCcAlphaG) {
    os << v;  // EWMA gains are fractional
  } else {
    os << static_cast<long long>(v);
  }
  return os.str();
}

}  // namespace

FeatureRow feature_row(const SearchSpace& space, const Workload& w) {
  FeatureRow row;
  for (int fi = 0; fi < kNumFeatures; ++fi) {
    const Feature f = static_cast<Feature>(fi);
    row[static_cast<std::size_t>(fi)] = is_categorical(f)
                                            ? space.categorical_value(w, f)
                                            : space.numeric_value(w, f);
  }
  return row;
}

bool FeatureCondition::admits(double v) const {
  if (categorical) {
    return std::find(allowed.begin(), allowed.end(), static_cast<int>(v)) !=
           allowed.end();
  }
  return v >= lo - 1e-9 && v <= hi + 1e-9;
}

bool FeatureCondition::contains(const SearchSpace& space,
                                const Workload& w) const {
  return admits(categorical ? space.categorical_value(w, feature)
                            : space.numeric_value(w, feature));
}

std::string FeatureCondition::describe(const SearchSpace& space) const {
  std::ostringstream os;
  os << to_string(feature) << " ";
  if (categorical) {
    os << "in {";
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      if (i) os << ", ";
      os << space.categorical_name(feature, allowed[i]);
    }
    os << "}";
    return os.str();
  }
  const bool has_lo = std::isfinite(lo);
  const bool has_hi = std::isfinite(hi);
  if (has_lo && has_hi) {
    os << "in [" << fmt_value(feature, lo) << ", " << fmt_value(feature, hi)
       << "]";
  } else if (has_lo) {
    os << ">= " << fmt_value(feature, lo);
  } else if (has_hi) {
    os << "<= " << fmt_value(feature, hi);
  } else {
    os << "unconstrained";
  }
  return os.str();
}

bool Mfs::matches(const SearchSpace& space, const Workload& w) const {
  for (const auto& c : conditions) {
    if (!c.contains(space, w)) return false;
  }
  return !conditions.empty();
}

bool Mfs::matches(const FeatureRow& row) const {
  for (const auto& c : conditions) {
    if (!c.contains(row)) return false;
  }
  return !conditions.empty();
}

namespace {

// same_anomaly_region, given whether a covers b's witness and b covers a's
// (each asked only when needed).
template <typename ACoversB, typename BCoversA>
bool same_region(const Mfs& a, const Mfs& b, ACoversB a_covers_b,
                 BCoversA b_covers_a) {
  if (a.symptom != b.symptom) return false;
  if (a_covers_b()) return true;
  if (b_covers_a()) return true;
  return a.conditions.empty() && b.conditions.empty() &&
         a.witness == b.witness;
}

}  // namespace

bool same_anomaly_region(const SearchSpace& space, const Mfs& a,
                         const Mfs& b) {
  return same_region(
      a, b, [&] { return a.matches(space, b.witness); },
      [&] { return b.matches(space, a.witness); });
}

bool same_anomaly_region(const Mfs& a, const FeatureRow& a_row, const Mfs& b,
                         const FeatureRow& b_row) {
  return same_region(
      a, b, [&] { return a.matches(b_row); },
      [&] { return b.matches(a_row); });
}

std::string Mfs::describe(const SearchSpace& space) const {
  std::ostringstream os;
  os << "MFS#" << index << " [" << to_string(symptom) << "]";
  for (const auto& c : conditions) {
    os << "\n  - " << c.describe(space);
  }
  if (conditions.empty()) os << " (no necessary conditions found)";
  return os.str();
}

Mfs construct_mfs(const SearchSpace& space, const Workload& witness,
                  Symptom symptom, const ProbeFn& probe) {
  Mfs mfs;
  mfs.symptom = symptom;
  mfs.witness = witness;
  // Every probe is the witness with one feature changed, assigned into one
  // reused workload.
  Workload probe_w;

  for (int fi = 0; fi < kNumFeatures; ++fi) {
    const Feature f = static_cast<Feature>(fi);

    if (is_categorical(f)) {
      const int current = space.categorical_value(witness, f);
      std::vector<int> allowed{current};
      bool any_breaks = false;
      int probes_done = 0;
      const std::vector<int>& alternatives = space.categorical_alternatives(f);
      // High-cardinality features (memory placements) are sampled with a
      // stride so extraction stays "a few tests per dimension".
      const int stride =
          std::max(1, static_cast<int>(alternatives.size()) /
                          kMaxCategoricalProbes);
      for (std::size_t ai = 0; ai < alternatives.size(); ++ai) {
        const int alt = alternatives[ai];
        if (alt == current) continue;
        if (static_cast<int>(alternatives.size()) >
                kMaxCategoricalProbes + 1 &&
            static_cast<int>(ai) % stride != 0) {
          continue;
        }
        if (probes_done >= kMaxCategoricalProbes + 1) break;
        space.with_categorical(witness, f, alt, probe_w);
        // A transform that collapses back to the same point tells us
        // nothing; treat it as "still anomalous".
        if (space.categorical_value(probe_w, f) != alt) continue;
        ++probes_done;
        if (probe(probe_w) == symptom) {
          allowed.push_back(alt);
        } else {
          any_breaks = true;
        }
      }
      if (any_breaks) {
        // This feature is necessary: record the surviving values.
        FeatureCondition c;
        c.feature = f;
        c.categorical = true;
        std::sort(allowed.begin(), allowed.end());
        c.allowed = std::move(allowed);
        mfs.conditions.push_back(std::move(c));
      }
      continue;
    }

    // Numeric feature: probe the discretized value regions downward and
    // upward from the witness value, closest regions first (the grid is
    // ascending).
    const std::vector<double>& grid = space.numeric_grid(f);
    if (grid.empty()) continue;
    const double current = space.numeric_value(witness, f);
    const auto below = [current](double g) {
      return g < current && !near(g, current);
    };
    const auto above = [current](double g) {
      return g > current && !near(g, current);
    };

    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lower_breaks = false;
    bool upper_breaks = false;

    double last_ok = current;
    int probes = 0;
    for (auto it = grid.rbegin(); it != grid.rend(); ++it) {
      const double g = *it;
      if (!below(g)) continue;
      if (probes++ >= kMaxNumericProbes) break;
      space.with_numeric(witness, f, g, probe_w);
      if (near(space.numeric_value(probe_w, f), current)) continue;
      if (probe(probe_w) == symptom) {
        last_ok = g;
      } else {
        lower_breaks = true;
        break;
      }
    }
    if (lower_breaks) lo = last_ok;

    last_ok = current;
    probes = 0;
    for (const double g : grid) {
      if (!above(g)) continue;
      if (probes++ >= kMaxNumericProbes) break;
      space.with_numeric(witness, f, g, probe_w);
      if (near(space.numeric_value(probe_w, f), current)) continue;
      if (probe(probe_w) == symptom) {
        last_ok = g;
      } else {
        upper_breaks = true;
        break;
      }
    }
    if (upper_breaks) hi = last_ok;

    if (lower_breaks || upper_breaks) {
      FeatureCondition c;
      c.feature = f;
      c.categorical = false;
      c.lo = lo;
      c.hi = hi;
      mfs.conditions.push_back(std::move(c));
    }
  }

  // Bound the region in the scale features where no necessity was
  // established.  Our probes test one feature at a time; when a witness
  // sits in the overlap of two mechanisms, a feature's change may leave it
  // anomalous via the *other* mechanism, and the unbounded region would
  // then swallow distant, undiscovered anomalies.  A generous (two-octave)
  // band keeps MatchMFS pruning the discovered region without masking the
  // rest of the space.  (On real hardware the paper did not need this: each
  // MFS came from a single silicon bug.)
  for (Feature f : {Feature::kNumQps, Feature::kWqeBatch,
                    Feature::kRecvWqDepth, Feature::kMsgSize}) {
    bool covered = false;
    for (const auto& c : mfs.conditions) {
      if (c.feature == f) covered = true;
    }
    if (covered) continue;
    const double v = std::max(1.0, space.numeric_value(witness, f));
    FeatureCondition c;
    c.feature = f;
    c.categorical = false;
    c.lo = v / 4.0;
    c.hi = v * 4.0;
    mfs.conditions.push_back(std::move(c));
  }

  if (mfs.conditions.empty()) {
    // Every single-feature change left the anomaly in place: the witness
    // sits in the overlap of several trigger regions.  Record a tight
    // local region around the witness — categorical profile plus one-
    // octave numeric bands — so MatchMFS prunes only the immediate
    // neighbourhood (the paper accepts that "multiple MFS are actually due
    // to the same anomaly"; this is the mirror case, and the region must
    // stay small enough not to mask *other* anomalies).
    for (Feature f :
         {Feature::kQpType, Feature::kOpcode, Feature::kDirection,
          Feature::kLoopback, Feature::kPatternMix}) {
      FeatureCondition c;
      c.feature = f;
      c.categorical = true;
      c.allowed = {space.categorical_value(witness, f)};
      mfs.conditions.push_back(std::move(c));
    }
    for (Feature f : {Feature::kNumQps, Feature::kWqeBatch,
                      Feature::kRecvWqDepth, Feature::kMsgSize}) {
      const double v = std::max(1.0, space.numeric_value(witness, f));
      FeatureCondition c;
      c.feature = f;
      c.categorical = false;
      c.lo = v / 2.0;
      c.hi = v * 2.0;
      mfs.conditions.push_back(std::move(c));
    }
  }
  return mfs;
}

}  // namespace collie::core
