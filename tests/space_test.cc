#include <gtest/gtest.h>

#include "core/space.h"
#include "sim/subsystem.h"

namespace collie::core {
namespace {

class SpaceTest : public ::testing::Test {
 protected:
  SpaceTest() : space_(sim::subsystem('F')) {}
  SearchSpace space_;
};

TEST_F(SpaceTest, PatternLengthFollowsNicPipeline) {
  const auto& nic = sim::subsystem('F').nicm;
  EXPECT_EQ(space_.pattern_length(),
            nic.processing_units * nic.pipeline_stages);
}

// Property: every random point is a valid workload within bounds.
class RandomPointProperty : public ::testing::TestWithParam<u64> {};

TEST_P(RandomPointProperty, RandomPointsAreValid) {
  SearchSpace space(sim::subsystem('F'));
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Workload w = space.random_point(rng);
    std::string why;
    EXPECT_TRUE(w.valid(&why)) << why << "\n" << w.describe();
    EXPECT_LE(w.num_qps, space.config().max_qps);
    EXPECT_LE(w.total_mrs(), space.config().max_total_mrs);
    EXPECT_LE(w.wqe_batch, w.send_wq_depth);
    EXPECT_EQ(static_cast<int>(w.pattern.size()), space.pattern_length());
  }
}

TEST_P(RandomPointProperty, MutationsStayValidAndChangeOneDimension) {
  SearchSpace space(sim::subsystem('F'));
  Rng rng(GetParam());
  Workload w = space.random_point(rng);
  for (int i = 0; i < 300; ++i) {
    const Workload m = space.mutate(w, rng);
    std::string why;
    ASSERT_TRUE(m.valid(&why)) << why << "\n" << m.describe();
    w = m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPointProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST_F(SpaceTest, RandomCoversTransports) {
  Rng rng(42);
  bool saw[3] = {false, false, false};
  bool saw_bidir = false;
  bool saw_loop = false;
  bool saw_gpu = false;
  for (int i = 0; i < 500; ++i) {
    const Workload w = space_.random_point(rng);
    saw[static_cast<int>(w.qp_type)] = true;
    saw_bidir |= w.bidirectional;
    saw_loop |= w.loopback;
    saw_gpu |= (w.local_mem.kind == topo::MemKind::kGpu ||
                w.remote_mem.kind == topo::MemKind::kGpu);
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
  EXPECT_TRUE(saw_bidir);
  EXPECT_TRUE(saw_loop);
  EXPECT_TRUE(saw_gpu);
}

TEST_F(SpaceTest, FixupEnforcesUdMtu) {
  Workload w;
  w.qp_type = QpType::kUD;
  w.opcode = Opcode::kSend;
  w.mtu = 1024;
  w.sge_per_wqe = 2;
  w.pattern = {64 * KiB, 64 * KiB};
  space_.fixup(w);
  std::string why;
  EXPECT_TRUE(w.valid(&why)) << why;
  for (int i = 0; i < w.wqes_per_round(); ++i) {
    EXPECT_LE(w.message_bytes(i), w.mtu);
  }
}

TEST_F(SpaceTest, FixupFixesTransportMismatch) {
  Workload w;
  w.qp_type = QpType::kUD;
  w.opcode = Opcode::kRead;
  w.pattern = {1024};
  space_.fixup(w);
  EXPECT_TRUE(transport_supports(w.qp_type, w.opcode));
}

TEST_F(SpaceTest, RestrictionExcludesFeatures) {
  SpaceConfig cfg;
  cfg.qp_types = {QpType::kRC};
  cfg.allow_loopback = false;
  cfg.allow_gpu = false;
  cfg.max_qps = 512;
  SearchSpace restricted(sim::subsystem('F'), cfg);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    Workload w = restricted.random_point(rng);
    for (int j = 0; j < 5; ++j) w = restricted.mutate(w, rng);
    EXPECT_EQ(w.qp_type, QpType::kRC);
    EXPECT_FALSE(w.loopback);
    EXPECT_LE(w.num_qps, 512);
    EXPECT_NE(w.local_mem.kind, topo::MemKind::kGpu);
    EXPECT_NE(w.remote_mem.kind, topo::MemKind::kGpu);
  }
}

TEST_F(SpaceTest, FeatureValueExtraction) {
  Rng rng(1);
  Workload w = space_.random_point(rng);
  w.num_qps = 320;
  w.bidirectional = true;
  w.qp_type = QpType::kRC;
  EXPECT_EQ(space_.numeric_value(w, Feature::kNumQps), 320);
  EXPECT_EQ(space_.categorical_value(w, Feature::kDirection), 1);
  EXPECT_EQ(space_.categorical_value(w, Feature::kQpType),
            static_cast<int>(QpType::kRC));
}

TEST_F(SpaceTest, WithNumericRescalesPattern) {
  Workload w;
  w.mr_size = 4 * MiB;
  w.pattern = {1 * KiB, 64 * KiB};
  w.sge_per_wqe = 1;
  const Workload scaled =
      space_.with_numeric(w, Feature::kMsgSize, 2.0 * 32.5 * KiB);
  const double avg = analyze_pattern(scaled).avg_msg_bytes;
  EXPECT_NEAR(avg, 65.0 * KiB, 2048);
  // Mix preserved: still one small-ish and one large entry.
  EXPECT_LT(scaled.pattern[0], scaled.pattern[1]);
}

TEST_F(SpaceTest, WithCategoricalPatternMix) {
  Workload w;
  w.mr_size = 4 * MiB;
  w.pattern = {4 * KiB, 4 * KiB, 4 * KiB, 4 * KiB};
  const Workload mixed =
      space_.with_categorical(w, Feature::kPatternMix, 3);
  EXPECT_EQ(space_.categorical_value(mixed, Feature::kPatternMix), 3);
  const Workload small = space_.with_categorical(w, Feature::kPatternMix, 0);
  EXPECT_EQ(space_.categorical_value(small, Feature::kPatternMix), 0);
}

TEST_F(SpaceTest, CategoricalNamesAreHumanReadable) {
  EXPECT_EQ(space_.categorical_name(Feature::kQpType,
                                    static_cast<int>(QpType::kUD)),
            "UD");
  EXPECT_EQ(space_.categorical_name(Feature::kDirection, 1),
            "bidirectional");
  EXPECT_EQ(space_.categorical_name(Feature::kPatternMix, 3),
            "mix small+large");
}

TEST_F(SpaceTest, NumericGridsAreSorted) {
  // CC features expose empty grids on a CC-disarmed space (no probe
  // experiments are ever spent on the inert dimension); everything else
  // must have a sorted, non-empty probe grid.
  for (int fi = 0; fi < kNumFeatures; ++fi) {
    const Feature f = static_cast<Feature>(fi);
    if (is_categorical(f)) continue;
    const auto grid = space_.numeric_grid(f);
    if (f == Feature::kCcRateAi || f == Feature::kCcAlphaG) {
      EXPECT_TRUE(grid.empty()) << to_string(f);
      continue;
    }
    EXPECT_FALSE(grid.empty()) << to_string(f);
    EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end())) << to_string(f);
  }

  // A CC-armed subsystem exposes the CC grids too.
  const SearchSpace armed(
      sim::with_cc(sim::subsystem('F'), nic::cc_scenario("dcqcn")));
  ASSERT_TRUE(armed.cc_searchable());
  for (const Feature f : {Feature::kCcRateAi, Feature::kCcAlphaG}) {
    const auto grid = armed.numeric_grid(f);
    EXPECT_FALSE(grid.empty()) << to_string(f);
    EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end())) << to_string(f);
  }
}

// Heterogeneous pairs: remote buffers live on host B's device set, which
// the catalog hetero scenario makes a GPU-less platform.
TEST_F(SpaceTest, HeterogeneousPairSplitsPlacementLists) {
  const SearchSpace hetero(sim::with_fabric(
      sim::subsystem('F'), net::fabric_scenario("hetero")));
  // Identical pairs share one list.
  EXPECT_EQ(space_.placements().size(), space_.remote_placements().size());
  // The hetero pair does not: host A keeps its GPUs, host B has DRAM only.
  EXPECT_LT(hetero.remote_placements().size(), hetero.placements().size());
  for (const auto& p : hetero.remote_placements()) {
    EXPECT_EQ(p.kind, topo::MemKind::kDram);
  }

  // Sampling and mutation only ever produce remote placements valid on
  // host B.
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    Workload w = hetero.random_point(rng);
    EXPECT_EQ(w.remote_mem.kind, topo::MemKind::kDram) << w.describe();
    w = hetero.mutate(w, rng);
    EXPECT_EQ(w.remote_mem.kind, topo::MemKind::kDram) << w.describe();
  }

  // Feature access indexes the remote list.
  const auto alts = hetero.categorical_alternatives(Feature::kRemoteMem);
  EXPECT_EQ(alts.size(), hetero.remote_placements().size());
  const Workload w = hetero.random_point(rng);
  const Workload forced =
      hetero.with_categorical(w, Feature::kRemoteMem, alts.back());
  EXPECT_EQ(forced.remote_mem, hetero.remote_placements().back());
}

}  // namespace
}  // namespace collie::core
