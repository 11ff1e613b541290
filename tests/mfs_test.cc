// MFS extraction against synthetic anomaly oracles: the probe function is a
// predicate we control, so the necessary-condition logic is tested without
// the simulator in the loop.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "core/mfs.h"
#include "core/mfs_index.h"
#include "core/mfs_store.h"
#include "sim/subsystem.h"

namespace collie::core {
namespace {

class MfsTest : public ::testing::Test {
 protected:
  MfsTest() : space_(sim::subsystem('F')) {}

  Workload witness_ud_batch() {
    Workload w;
    w.qp_type = QpType::kUD;
    w.opcode = Opcode::kSend;
    w.num_qps = 4;
    w.mtu = 2048;
    w.pattern = {2048};
    w.send_wq_depth = 256;
    w.recv_wq_depth = 256;
    w.wqe_batch = 64;
    space_.fixup(w);
    return w;
  }

  SearchSpace space_;
};

TEST_F(MfsTest, RecoversCategoricalAndNumericConditions) {
  // Oracle: anomaly iff UD and batch >= 64 (anomaly-#1 shape).
  int probes = 0;
  auto probe = [&](const Workload& w) {
    ++probes;
    return (w.qp_type == QpType::kUD && w.wqe_batch >= 64)
               ? Symptom::kPauseFrames
               : Symptom::kNone;
  };
  const Mfs mfs = construct_mfs(space_, witness_ud_batch(),
                                Symptom::kPauseFrames, probe);
  EXPECT_GT(probes, 5);

  // qp_type must be a condition allowing only UD.
  const FeatureCondition* qp = nullptr;
  const FeatureCondition* batch = nullptr;
  for (const auto& c : mfs.conditions) {
    if (c.feature == Feature::kQpType) qp = &c;
    if (c.feature == Feature::kWqeBatch) batch = &c;
  }
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(qp->allowed,
            std::vector<int>{static_cast<int>(QpType::kUD)});
  ASSERT_NE(batch, nullptr);
  EXPECT_GE(batch->lo, 32.0);  // grid resolution: threshold lands at 64
  EXPECT_LE(batch->lo, 64.0);
  EXPECT_FALSE(std::isfinite(batch->hi));  // no upper necessity
}

TEST_F(MfsTest, UnrelatedFeaturesAreDropped) {
  auto probe = [&](const Workload& w) {
    return w.wqe_batch >= 64 ? Symptom::kPauseFrames : Symptom::kNone;
  };
  const Mfs mfs = construct_mfs(space_, witness_ud_batch(),
                                Symptom::kPauseFrames, probe);
  for (const auto& c : mfs.conditions) {
    EXPECT_NE(c.feature, Feature::kMtu);
    EXPECT_NE(c.feature, Feature::kMrSize);
    EXPECT_NE(c.feature, Feature::kLoopback);
  }
}

TEST_F(MfsTest, MatchesWorkloadsInsideRegion) {
  auto probe = [&](const Workload& w) {
    return (w.qp_type == QpType::kUD && w.wqe_batch >= 64)
               ? Symptom::kPauseFrames
               : Symptom::kNone;
  };
  const Mfs mfs = construct_mfs(space_, witness_ud_batch(),
                                Symptom::kPauseFrames, probe);

  Workload inside = witness_ud_batch();
  inside.num_qps = 8;  // within the local band of the witness (qps 4)
  inside.mtu = 1024;   // untracked features may vary freely
  space_.fixup(inside);
  EXPECT_TRUE(mfs.matches(space_, inside));

  Workload far = witness_ud_batch();
  far.num_qps = 900;  // outside the two-octave locality band
  space_.fixup(far);
  EXPECT_FALSE(mfs.matches(space_, far));

  Workload outside = witness_ud_batch();
  outside.wqe_batch = 8;
  space_.fixup(outside);
  EXPECT_FALSE(mfs.matches(space_, outside));

  Workload rc = witness_ud_batch();
  rc.qp_type = QpType::kRC;
  space_.fixup(rc);
  EXPECT_FALSE(mfs.matches(space_, rc));
}

TEST_F(MfsTest, TwoSidedNumericRange) {
  // Oracle: anomaly only for messages in [2KB, 8KB] (anomaly-#5 shape).
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kSend;
  w.mtu = 1024;
  w.pattern = {4 * KiB};
  w.mr_size = 4 * MiB;
  space_.fixup(w);
  auto probe = [&](const Workload& x) {
    const double avg = analyze_pattern(x).avg_msg_bytes;
    return (avg >= 2 * KiB && avg <= 8 * KiB) ? Symptom::kPauseFrames
                                              : Symptom::kNone;
  };
  const Mfs mfs = construct_mfs(space_, w, Symptom::kPauseFrames, probe);
  const FeatureCondition* size = nullptr;
  for (const auto& c : mfs.conditions) {
    if (c.feature == Feature::kMsgSize) size = &c;
  }
  ASSERT_NE(size, nullptr);
  EXPECT_TRUE(std::isfinite(size->lo));
  EXPECT_TRUE(std::isfinite(size->hi));
  EXPECT_GE(size->lo, 512.0);
  EXPECT_LE(size->hi, 64.0 * KiB);
}

TEST_F(MfsTest, DescribeIsHumanReadable) {
  auto probe = [&](const Workload& w) {
    return w.qp_type == QpType::kUD ? Symptom::kPauseFrames
                                    : Symptom::kNone;
  };
  const Mfs mfs = construct_mfs(space_, witness_ud_batch(),
                                Symptom::kPauseFrames, probe);
  const std::string text = mfs.describe(space_);
  EXPECT_NE(text.find("qp_type"), std::string::npos);
  EXPECT_NE(text.find("UD"), std::string::npos);
}

TEST_F(MfsTest, EmptyConditionsNeverMatch) {
  Mfs empty;
  EXPECT_FALSE(empty.matches(space_, witness_ud_batch()));
}

TEST_F(MfsTest, ConditionContains) {
  FeatureCondition c;
  c.feature = Feature::kNumQps;
  c.categorical = false;
  c.lo = 100;
  c.hi = std::numeric_limits<double>::infinity();
  Workload w = witness_ud_batch();
  w.num_qps = 500;
  EXPECT_TRUE(c.contains(space_, w));
  w.num_qps = 50;
  EXPECT_FALSE(c.contains(space_, w));
}

// ---- MatchMFS index equivalence -------------------------------------------
//
// The per-feature index must answer exactly like the linear scan, entry
// position included (first-cover semantics drive hit provenance in the
// concurrent pool).  Fuzz adversarial condition sets: empty allowed lists,
// one-sided and infinite ranges, duplicate conditions on one feature
// (including disjoint ranges that intersect to nothing), one-ulp-wide
// ranges, condition-free entries, and tolerance-boundary values.

Mfs fuzz_mfs(const SearchSpace& space, Rng& rng) {
  Mfs m;
  m.symptom = rng.bernoulli(0.5) ? Symptom::kPauseFrames
                                 : Symptom::kLowThroughput;
  m.witness = space.random_point(rng);
  const int n_conditions = static_cast<int>(rng.uniform_int(0, 6));
  for (int ci = 0; ci < n_conditions; ++ci) {
    const Feature f =
        static_cast<Feature>(rng.uniform_int(0, kNumFeatures - 1));
    FeatureCondition c;
    c.feature = f;
    c.categorical = is_categorical(f);
    if (c.categorical) {
      const auto alts = space.categorical_alternatives(f);
      for (const int a : alts) {
        if (rng.bernoulli(0.5)) c.allowed.push_back(a);
      }
      // Occasionally empty (matches nothing) or with duplicates.
      if (!c.allowed.empty() && rng.bernoulli(0.3)) {
        c.allowed.push_back(c.allowed.front());
      }
    } else {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const double v = std::max(1.0, space.numeric_value(m.witness, f));
      switch (rng.uniform_int(0, 5)) {
        case 0:
          c.lo = v / 4.0;
          c.hi = v * 4.0;
          break;
        case 1:  // one-sided
          c.lo = v;
          break;
        case 2:
          c.hi = v;
          break;
        case 3:  // exact point (tolerance boundary), or one ulp wide
          c.lo = v;
          c.hi = rng.bernoulli(0.5) ? v : std::nextafter(v, kInf);
          break;
        case 4: {  // two disjoint ranges: empty after intersection
          c.lo = v * 2.0;
          c.hi = v * 4.0;
          FeatureCondition below = c;
          below.lo = v / 4.0;
          below.hi = v;
          m.conditions.push_back(std::move(below));
          break;
        }
        default:  // explicit infinite side
          if (rng.bernoulli(0.5)) {
            c.lo = -kInf;
            c.hi = v;
          } else {
            c.lo = v;
            c.hi = kInf;
          }
          break;
      }
    }
    m.conditions.push_back(std::move(c));
  }
  return m;
}

int linear_first_match(const std::vector<Mfs>& set, const SearchSpace& space,
                       const Workload& w) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i].matches(space, w)) return static_cast<int>(i);
  }
  return -1;
}

// Queries that land exactly on each tolerance-adjusted endpoint of `m`'s
// conditions on the double-valued features (the workload field holds the
// feature value itself, so any double is reachable) and on its one-ulp
// neighbours, with every other feature taken from `base`.
std::vector<Workload> endpoint_queries(const Mfs& m, const Workload& base) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Workload> out;
  for (const FeatureCondition& c : m.conditions) {
    if (c.categorical) continue;
    double Workload::*field = nullptr;
    if (c.feature == Feature::kCcRateAi) field = &Workload::dcqcn_rate_ai_mbps;
    if (c.feature == Feature::kCcAlphaG) field = &Workload::dcqcn_g;
    if (field == nullptr) continue;
    for (const double e : {c.lo - 1e-9, c.hi + 1e-9}) {
      for (const double x :
           {std::nextafter(e, -kInf), e, std::nextafter(e, kInf)}) {
        Workload w = base;
        w.*field = x;
        out.push_back(std::move(w));
      }
    }
  }
  return out;
}

// Every query answered by `index` exactly like the linear scan over `set`,
// both unfiltered and restricted to the later half of the entries (so the
// high words answer even when an early entry would match first); returns
// how many unfiltered queries hit.
int expect_scan_answers(const MfsIndex& index, const std::vector<Mfs>& set,
                        const SearchSpace& space,
                        const std::vector<Workload>& queries,
                        const std::string& where) {
  const std::size_t half = set.size() / 2;
  std::vector<u64> later;
  for (std::size_t i = half; i < set.size(); ++i) MfsIndex::set_bit(later, i);
  int hits = 0;
  for (const Workload& w : queries) {
    const int expect = linear_first_match(set, space, w);
    EXPECT_EQ(index.first_match(space, w), expect) << where;
    if (expect >= 0) hits += 1;
    int expect_later = -1;
    for (std::size_t i = half; i < set.size(); ++i) {
      if (set[i].matches(space, w)) {
        expect_later = static_cast<int>(i);
        break;
      }
    }
    EXPECT_EQ(index.first_match(space, w, later), expect_later) << where;
  }
  return hits;
}

TEST_F(MfsTest, IndexMatchesLinearScanOnFuzzedSets) {
  // Seed 5 grows to 160 entries: the masks cross the 64- and 128-entry word
  // boundaries and the row stride grows twice under live regions.
  for (const auto& [seed, rounds] :
       {std::pair{1, 40}, std::pair{2, 40}, std::pair{3, 40},
        std::pair{4, 40}, std::pair{5, 160}}) {
    Rng rng(static_cast<u64>(seed));
    MfsIndex index;
    std::vector<Mfs> set;
    LocalMfsStore store;
    std::vector<Workload> endpoints;  // every stored endpoint so far
    int endpoint_hits = 0;
    for (int round = 0; round < rounds; ++round) {
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      // Interleave inserts with queries so every intermediate index state
      // is exercised, not just the final one.
      Mfs m = fuzz_mfs(space_, rng);
      index.add(m);
      store.insert(space_, m);
      set.push_back(std::move(m));
      const Mfs& added = set.back();
      const Workload& other =
          set[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<i64>(set.size()) - 1))]
              .witness;
      for (const Workload& base : {added.witness, other}) {
        for (Workload& w : endpoint_queries(added, base)) {
          endpoints.push_back(std::move(w));
        }
      }
      std::vector<Workload> queries;
      for (int q = 0; q < 25; ++q) {
        queries.push_back(rng.bernoulli(0.5)
                              ? space_.random_point(rng)
                              : space_.mutate(added.witness, rng));
      }
      expect_scan_answers(index, set, space_, queries, where);
      for (const Workload& w : queries) {
        EXPECT_EQ(store.covers(space_, w),
                  linear_first_match(set, space_, w) >= 0);
      }
      // Probe the witnesses themselves: dense hit coverage.
      std::vector<Workload> witnesses;
      for (const Mfs& m2 : set) witnesses.push_back(m2.witness);
      expect_scan_answers(index, set, space_, witnesses, where);
      // Endpoints stored earlier see every later split of their gaps.
      if (round % 16 == 15 || round + 1 == rounds) {
        endpoint_hits +=
            expect_scan_answers(index, set, space_, endpoints, where);
      }
    }
    EXPECT_GT(endpoint_hits, 0) << "seed " << seed;
  }
}

// An index copy is independent: growing the copy (past a word boundary, so
// its stride grows too) leaves the original's answers untouched.
TEST_F(MfsTest, IndexCopyIsUnaffectedByAddsToTheCopy) {
  Rng rng(6);
  MfsIndex index;
  std::vector<Mfs> set;
  std::vector<Workload> queries;
  for (int i = 0; i < 70; ++i) {
    Mfs m = fuzz_mfs(space_, rng);
    index.add(m);
    queries.push_back(m.witness);
    for (Workload& w : endpoint_queries(m, m.witness)) {
      queries.push_back(std::move(w));
    }
    set.push_back(std::move(m));
  }
  for (int q = 0; q < 300; ++q) queries.push_back(space_.random_point(rng));
  std::vector<int> before;
  for (const Workload& w : queries) {
    before.push_back(index.first_match(space_, w));
  }

  MfsIndex copy = index;
  std::vector<Mfs> copy_set = set;
  for (int i = 0; i < 100; ++i) {
    Mfs m = fuzz_mfs(space_, rng);
    copy.add(m);
    queries.push_back(m.witness);
    copy_set.push_back(std::move(m));
  }
  for (std::size_t q = 0; q < before.size(); ++q) {
    EXPECT_EQ(index.first_match(space_, queries[q]), before[q]) << q;
  }
  EXPECT_GT(expect_scan_answers(index, set, space_, queries, "original"), 0);
  expect_scan_answers(copy, copy_set, space_, queries, "copy");
}

TEST_F(MfsTest, IndexHonoursToleranceBoundsExactly) {
  // contains() accepts v within [lo - 1e-9, hi + 1e-9]; the index
  // precomputes those exact bounds.  Probe just inside and outside.
  Mfs m;
  m.symptom = Symptom::kPauseFrames;
  m.witness = witness_ud_batch();
  FeatureCondition c;
  c.feature = Feature::kNumQps;
  c.categorical = false;
  c.lo = 100.0;
  c.hi = 200.0;
  m.conditions.push_back(c);
  MfsIndex index;
  index.add(m);
  std::vector<Mfs> set{m};
  Workload w = witness_ud_batch();
  for (const int qps : {99, 100, 101, 150, 199, 200, 201}) {
    w.num_qps = qps;
    EXPECT_EQ(index.first_match(space_, w),
              linear_first_match(set, space_, w))
        << qps;
  }
}

TEST_F(MfsTest, IndexFilterRestrictsToFlaggedEntries) {
  Rng rng(9);
  MfsIndex index;
  std::vector<Mfs> set;
  std::vector<u64> filter;
  for (int i = 0; i < 30; ++i) {
    Mfs m = fuzz_mfs(space_, rng);
    index.add(m);
    if (i % 3 == 0) MfsIndex::set_bit(filter, static_cast<std::size_t>(i));
    set.push_back(std::move(m));
  }
  for (int q = 0; q < 200; ++q) {
    const Workload w = space_.random_point(rng);
    int expect = -1;
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (i % 3 == 0 && set[i].matches(space_, w)) {
        expect = static_cast<int>(i);
        break;
      }
    }
    EXPECT_EQ(index.first_match(space_, w, filter), expect);
  }
}

TEST_F(MfsTest, IndexConjoinsDuplicateFeatureConditions) {
  // Two conditions on the same feature must intersect, exactly like the
  // linear conjunction over the condition list.
  Mfs m;
  m.symptom = Symptom::kPauseFrames;
  m.witness = witness_ud_batch();
  FeatureCondition a;
  a.feature = Feature::kWqeBatch;
  a.categorical = false;
  a.lo = 8.0;
  a.hi = 64.0;
  FeatureCondition b = a;
  b.lo = 32.0;
  b.hi = 128.0;
  m.conditions = {a, b};
  MfsIndex index;
  index.add(m);
  std::vector<Mfs> set{m};
  Workload w = witness_ud_batch();
  for (const int batch : {4, 8, 16, 32, 48, 64, 100, 128}) {
    w.wqe_batch = batch;
    EXPECT_EQ(index.first_match(space_, w),
              linear_first_match(set, space_, w))
        << batch;
  }

  // Categorical intersection: {UD} after {RC, UD} leaves only UD.
  Mfs cm;
  cm.symptom = Symptom::kPauseFrames;
  cm.witness = witness_ud_batch();
  FeatureCondition c1;
  c1.feature = Feature::kQpType;
  c1.categorical = true;
  c1.allowed = {static_cast<int>(QpType::kRC), static_cast<int>(QpType::kUD)};
  FeatureCondition c2 = c1;
  c2.allowed = {static_cast<int>(QpType::kUD)};
  cm.conditions = {c1, c2};
  MfsIndex cidx;
  cidx.add(cm);
  std::vector<Mfs> cset{cm};
  Workload cw = witness_ud_batch();
  for (const QpType t : {QpType::kRC, QpType::kUC, QpType::kUD}) {
    cw.qp_type = t;
    EXPECT_EQ(cidx.first_match(space_, cw),
              linear_first_match(cset, space_, cw));
  }
}

}  // namespace
}  // namespace collie::core
