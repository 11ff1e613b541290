#include "core/mfs_index.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace collie::core {
namespace {

// cand &= a | b over n words (b may be null).
void and_or2(u64* cand, const u64* a, const u64* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    cand[i] &= b != nullptr ? a[i] | b[i] : a[i];
  }
}

bool all_zero(const u64* mask, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0) return false;
  }
  return true;
}

void set_row_bit(u64* row, std::size_t i) {
  row[i / 64] |= u64{1} << (i % 64);
}

// How expensive it is to derive a workload's value on this feature.  The
// query walks constrained features cheapest-first so a miss usually empties
// the candidate set before ever paying for a pattern analysis; answers are
// order-independent (pure AND), only the constant factor moves.
int feature_cost_rank(int f) {
  switch (static_cast<Feature>(f)) {
    case Feature::kLocalMem:
    case Feature::kRemoteMem:
      return 1;  // placement-list scan
    case Feature::kPatternMix:
    case Feature::kMsgSize:
      return 2;  // O(pattern) analysis
    default:
      return 0;  // direct field read
  }
}

// Copy every `old_stride`-word row of `rows` into a `stride`-word row.
void restride(std::vector<u64>& rows, std::size_t old_stride,
              std::size_t stride) {
  if (rows.empty()) return;  // feature not indexed (and old_stride may be 0)
  const std::size_t count = rows.size() / old_stride;
  std::vector<u64> out(count * stride, 0);
  for (std::size_t r = 0; r < count; ++r) {
    std::memcpy(out.data() + r * stride, rows.data() + r * old_stride,
                old_stride * sizeof(u64));
  }
  rows = std::move(out);
}

}  // namespace

void MfsIndex::reserve_entries(std::size_t n) {
  const std::size_t need = (n + 63) / 64;
  if (need <= stride_) return;
  const std::size_t stride = std::max(need, 2 * stride_);
  matchable_.resize(stride, 0);
  for (int f = 0; f < kNumFeatures; ++f) {
    restride(cat_[f].rows, stride_, stride);
    restride(num_[f].rows, stride_, stride);
  }
  stride_ = stride;
}

// The first row of a newly indexed feature: every earlier entry had no
// condition on it.
std::vector<u64> MfsIndex::new_index_rows(std::size_t entry) const {
  std::vector<u64> rows(stride_, 0);
  for (std::size_t e = 0; e < entry; ++e) set_row_bit(rows.data(), e);
  return rows;
}

void MfsIndex::activate(int f) {
  if (std::find(active_.begin(), active_.end(), f) != active_.end()) return;
  active_.push_back(f);
  std::sort(active_.begin(), active_.end(), [](int a, int b) {
    const int ra = feature_cost_rank(a);
    const int rb = feature_cost_rank(b);
    return ra != rb ? ra < rb : a < b;
  });
}

// Row of value `v`, inserting an empty one (kept in value order) if new.
std::size_t MfsIndex::value_row(CategoricalIndex& idx, int v) const {
  const auto it = std::lower_bound(idx.values.begin(), idx.values.end(), v);
  const std::size_t i = static_cast<std::size_t>(it - idx.values.begin());
  if (it == idx.values.end() || *it != v) {
    idx.values.insert(it, v);
    idx.rows.insert(idx.rows.begin() + static_cast<std::ptrdiff_t>(
                                           (1 + i) * stride_),
                    stride_, 0);
  }
  return 1 + i;
}

// Position of endpoint `p` in idx.bounds, splitting the gap it lands in
// into gap / point / gap when it is new.  The three inherit the gap's mask:
// every stored interval covering the gap covers all of it.
std::size_t MfsIndex::insert_endpoint(NumericIndex& idx, double p) const {
  const auto it = std::lower_bound(idx.bounds.begin(), idx.bounds.end(), p);
  const std::size_t pos = static_cast<std::size_t>(it - idx.bounds.begin());
  if (it != idx.bounds.end() && *it == p) return pos;
  idx.bounds.insert(it, p);
  const std::size_t gap_row = 1 + 2 * pos;
  idx.rows.insert(idx.rows.begin() +
                      static_cast<std::ptrdiff_t>((gap_row + 1) * stride_),
                  2 * stride_, 0);
  const u64* gap = idx.rows.data() + gap_row * stride_;
  std::memcpy(idx.rows.data() + (gap_row + 1) * stride_, gap,
              stride_ * sizeof(u64));
  std::memcpy(idx.rows.data() + (gap_row + 2) * stride_, gap,
              stride_ * sizeof(u64));
  return pos;
}

void MfsIndex::add(const Mfs& mfs) {
  const std::size_t entry = n_;
  n_ += 1;
  reserve_entries(n_);
  if (!mfs.conditions.empty()) set_row_bit(matchable_.data(), entry);

  // Conjoin this entry's conditions per (feature, kind): intersection of
  // allowed sets, intersection of tolerance-adjusted ranges.  contains()
  // evaluates `v >= lo - 1e-9 && v <= hi + 1e-9` per condition; fp
  // subtraction/addition of the constant is monotone, so intersecting the
  // adjusted bounds equals adjusting the intersected bounds bit-for-bit.
  struct CatAgg {
    bool present = false;
    std::vector<int> allowed;
  };
  struct NumAgg {
    bool present = false;
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
  };
  std::array<CatAgg, kNumFeatures> cat_agg;
  std::array<NumAgg, kNumFeatures> num_agg;
  for (const FeatureCondition& c : mfs.conditions) {
    const int f = static_cast<int>(c.feature);
    if (f < 0 || f >= kNumFeatures) continue;
    if (c.categorical) {
      CatAgg& agg = cat_agg[static_cast<std::size_t>(f)];
      std::vector<int> values = c.allowed;
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      if (!agg.present) {
        agg.present = true;
        agg.allowed = std::move(values);
      } else {
        std::vector<int> both;
        std::set_intersection(agg.allowed.begin(), agg.allowed.end(),
                              values.begin(), values.end(),
                              std::back_inserter(both));
        agg.allowed = std::move(both);
      }
    } else {
      NumAgg& agg = num_agg[static_cast<std::size_t>(f)];
      agg.present = true;
      agg.lo = std::max(agg.lo, c.lo - 1e-9);
      agg.hi = std::min(agg.hi, c.hi + 1e-9);
    }
  }

  for (int f = 0; f < kNumFeatures; ++f) {
    CategoricalIndex& cat = cat_[f];
    const CatAgg& ca = cat_agg[static_cast<std::size_t>(f)];
    if (ca.present) {
      if (cat.rows.empty()) {
        cat.rows = new_index_rows(entry);
        activate(f);
      }
      for (const int v : ca.allowed) {
        const std::size_t row = value_row(cat, v);
        set_row_bit(cat.rows.data() + row * stride_, entry);
      }
    } else if (!cat.rows.empty()) {
      set_row_bit(cat.rows.data(), entry);
    }

    NumericIndex& num = num_[f];
    const NumAgg& na = num_agg[static_cast<std::size_t>(f)];
    if (na.present) {
      if (num.rows.empty()) {
        num.rows = new_index_rows(entry);
        num.rows.resize(2 * stride_, 0);  // region 0: the whole line
        activate(f);
      }
      // An empty range (lo > hi after intersection, or NaN) matches no
      // value: the entry stays out of row 0 and out of every region.
      if (na.lo <= na.hi) {
        const std::size_t lo = insert_endpoint(num, na.lo);
        const std::size_t hi = insert_endpoint(num, na.hi);
        for (std::size_t r = 2 * lo + 1; r <= 2 * hi + 1; ++r) {
          set_row_bit(num.rows.data() + (1 + r) * stride_, entry);
        }
      }
    } else if (!num.rows.empty()) {
      set_row_bit(num.rows.data(), entry);
    }
  }
}

int MfsIndex::scan_first(u64* cand, const SearchSpace& space,
                         const Workload& w) const {
  const std::size_t nw = words();
  for (const int f : active_) {
    if (all_zero(cand, nw)) return -1;
    const Feature feature = static_cast<Feature>(f);
    const CategoricalIndex& cat = cat_[f];
    if (!cat.rows.empty()) {
      const int v = space.categorical_value(w, feature);
      const auto it = std::lower_bound(cat.values.begin(), cat.values.end(), v);
      const u64* row =
          it != cat.values.end() && *it == v
              ? cat.rows.data() +
                    (1 + static_cast<std::size_t>(it - cat.values.begin())) *
                        stride_
              : nullptr;
      and_or2(cand, cat.rows.data(), row, nw);
    }
    const NumericIndex& num = num_[f];
    if (!num.rows.empty()) {
      const double v = space.numeric_value(w, feature);
      const auto it = std::lower_bound(num.bounds.begin(), num.bounds.end(), v);
      std::size_t r = 2 * static_cast<std::size_t>(it - num.bounds.begin());
      if (it != num.bounds.end() && *it == v) r += 1;  // exact endpoint hit
      and_or2(cand, num.rows.data(), num.rows.data() + (1 + r) * stride_, nw);
    }
  }
  for (std::size_t word = 0; word < nw; ++word) {
    if (cand[word] != 0) {
      return static_cast<int>(word * 64 +
                              static_cast<std::size_t>(
                                  std::countr_zero(cand[word])));
    }
  }
  return -1;
}

int MfsIndex::first_match(const SearchSpace& space, const Workload& w) const {
  if (n_ == 0) return -1;
  // Query scratch: reused across calls so the probe hot path allocates
  // nothing once warm.  thread_local because pool snapshots are queried
  // concurrently from campaign workers.
  thread_local std::vector<u64> cand;
  cand.assign(matchable_.begin(),
              matchable_.begin() + static_cast<std::ptrdiff_t>(words()));
  return scan_first(cand.data(), space, w);
}

int MfsIndex::first_match(const SearchSpace& space, const Workload& w,
                          const std::vector<u64>& filter) const {
  if (n_ == 0) return -1;
  thread_local std::vector<u64> cand;
  cand.assign(matchable_.begin(),
              matchable_.begin() + static_cast<std::ptrdiff_t>(words()));
  for (std::size_t i = 0; i < cand.size(); ++i) {
    cand[i] &= i < filter.size() ? filter[i] : 0;
  }
  return scan_first(cand.data(), space, w);
}

}  // namespace collie::core
