// Per-feature index over a set of MFSes, answering MatchMFS sublinearly.
//
// The linear MatchMFS walks every stored MFS and re-derives the workload's
// feature values per condition; at campaign scale that scan sits inside
// every probe.  The index flips the loop: the workload's value on each
// constrained feature is computed once and mapped — through a value bucket
// (categorical) or an interval-stabbing table (numeric) — to a bitmask of
// MFSes whose condition on that feature holds.  ANDing the per-feature
// masks yields every matching MFS at once; the lowest set bit is the first
// match in insertion order, which preserves the linear scan's first-cover
// semantics exactly (hit provenance attributes to the same entry).
//
// Equivalence contract (property-tested against the linear scan):
//   * an MFS with no conditions never matches (Mfs::matches semantics);
//   * categorical conditions match by exact membership of the workload's
//     value in the allowed set;
//   * numeric conditions match with the same +-1e-9 tolerance, precomputed
//     into the interval endpoints with the identical expressions
//     FeatureCondition::contains evaluates;
//   * multiple conditions on one feature conjoin (allowed-set intersection /
//     range intersection).
//
// Storage is flat.  Every mask is a row of stride_ words, and each feature
// keeps its rows back to back in one word array: row 0 holds the entries
// with no condition on the feature (they match any value), the following
// rows hold one sorted value (categorical, values kept in a sorted flat
// array) or one region of the numeric line.  The stride doubles when the
// entry count outgrows it, so copying an index is a handful of flat
// allocations, however many regions it holds.
//
// Numeric regions are maintained incrementally.  The sorted endpoints cut
// the line into alternating open gaps and single points; a new endpoint
// lands in one gap, which splits into gap / point / gap, each inheriting
// the gap's mask (every stored interval covering the gap covers its parts).
// The new entry's bit is then set on the regions from its lo point to its
// hi point.  An add therefore touches only the rows its own conditions
// reach, plus one row shift per new endpoint.
//
// The index is insertion-ordered and append-only: add() never invalidates
// earlier answers.  It is NOT internally synchronized — the concurrent pool
// publishes immutable snapshots instead (see orchestrator/mfs_pool.h).
#pragma once

#include <array>
#include <vector>

#include "core/mfs.h"

namespace collie::core {

class MfsIndex {
 public:
  // Register the next entry (its position is the current size()).
  void add(const Mfs& mfs);

  std::size_t size() const { return n_; }

  // Position (insertion order) of the first entry matching `w`, or -1.
  // Equivalent to scanning entries in order calling Mfs::matches.
  int first_match(const SearchSpace& space, const Workload& w) const;

  // Same, restricted to entries whose bit is set in `filter` (missing high
  // words read as zero).  Used for warm-start-only (covers_preloaded)
  // queries.
  int first_match(const SearchSpace& space, const Workload& w,
                  const std::vector<u64>& filter) const;

  static void set_bit(std::vector<u64>& mask, std::size_t i) {
    const std::size_t word = i / 64;
    if (mask.size() <= word) mask.resize(word + 1, 0);
    mask[word] |= u64{1} << (i % 64);
  }

 private:
  // Entries with a categorical condition on one feature.  Empty rows mean
  // the feature has no categorical index.
  struct CategoricalIndex {
    std::vector<int> values;  // sorted allowed values seen so far
    // Row 0: unconditioned entries; row 1 + i: entries allowing values[i].
    std::vector<u64> rows;
  };

  // Entries with a numeric condition on one feature, as an interval-stabbing
  // table over the tolerance-adjusted bounds.  Empty rows mean no index.
  struct NumericIndex {
    // Sorted unique interval endpoints; region r covers, alternating, the
    // open gap below bounds[r/2] (even r) or the point bounds[r/2] (odd r).
    std::vector<double> bounds;
    // Row 0: unconditioned entries; row 1 + r: region r (2*bounds+1 of them).
    std::vector<u64> rows;
  };

  std::size_t words() const { return (n_ + 63) / 64; }
  // Grow the row stride (doubling) so every row holds `n` entry bits.
  void reserve_entries(std::size_t n);
  std::vector<u64> new_index_rows(std::size_t entry) const;
  void activate(int f);
  std::size_t value_row(CategoricalIndex& idx, int v) const;
  std::size_t insert_endpoint(NumericIndex& idx, double p) const;
  int scan_first(u64* cand, const SearchSpace& space, const Workload& w) const;

  std::size_t n_ = 0;
  std::size_t stride_ = 0;      // words per row
  std::vector<u64> matchable_;  // one row: entries with >= 1 condition
  std::array<CategoricalIndex, kNumFeatures> cat_;
  std::array<NumericIndex, kNumFeatures> num_;
  // Features with any index structure, cheapest to evaluate first.
  std::vector<int> active_;
};

}  // namespace collie::core
