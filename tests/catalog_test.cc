#include <gtest/gtest.h>

#include "catalog/anomalies.h"

namespace collie::catalog {
namespace {

TEST(Catalog, IdsAreUniqueAndOrdered) {
  int expected = 1;
  for (const auto& a : all_anomalies()) {
    EXPECT_EQ(a.id, expected++);
  }
  EXPECT_EQ(anomaly(4).id, 4);
  EXPECT_THROW(anomaly(0), std::out_of_range);
  EXPECT_THROW(anomaly(19), std::out_of_range);
}

TEST(Catalog, ConcreteSettingsAreValidWorkloads) {
  for (const auto& a : all_anomalies()) {
    std::string why;
    EXPECT_TRUE(a.concrete.valid(&why)) << "anomaly #" << a.id << ": " << why;
  }
}

TEST(Catalog, ChipsMatchSubsystems) {
  for (const auto& a : all_anomalies()) {
    if (a.primary_subsystem == 'H') {
      EXPECT_EQ(a.chip, "P2100") << a.id;
    } else {
      EXPECT_EQ(a.chip, "CX-6") << a.id;
    }
  }
}

TEST(Catalog, KnownAnomaliesAreMarkedOld) {
  // Table 2: #9, #12, #13 were known before Collie was built.
  for (int id : {9, 12, 13}) {
    EXPECT_FALSE(anomaly(id).is_new) << id;
  }
  for (int id : {1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 14, 15, 16, 17, 18}) {
    EXPECT_TRUE(anomaly(id).is_new) << id;
  }
}

TEST(Catalog, LabelRequiresSymptomMatch) {
  const AnomalyInfo& a1 = anomaly(1);
  const auto with_pause =
      label("CX-6", a1.concrete, Symptom::kPauseFrames);
  EXPECT_NE(std::find(with_pause.begin(), with_pause.end(), 1),
            with_pause.end());
  const auto with_tput =
      label("CX-6", a1.concrete, Symptom::kLowThroughput);
  EXPECT_EQ(std::find(with_tput.begin(), with_tput.end(), 1),
            with_tput.end());
}

TEST(Catalog, LabelFiltersChip) {
  const AnomalyInfo& a15 = anomaly(15);
  const auto on_p2100 =
      label("P2100", a15.concrete, Symptom::kPauseFrames);
  EXPECT_NE(std::find(on_p2100.begin(), on_p2100.end(), 15),
            on_p2100.end());
  const auto on_cx6 = label("CX-6", a15.concrete, Symptom::kPauseFrames);
  EXPECT_EQ(std::find(on_cx6.begin(), on_cx6.end(), 15), on_cx6.end());
}

TEST(Catalog, MechanismLabelerDistinguishesGpuFromDram) {
  // Same ordering mechanism, different anomaly depending on placement.
  Workload dram = anomaly(9).concrete;
  Workload gpu = anomaly(12).concrete;
  EXPECT_EQ(label_by_mechanism("CX-6", "pair", dram,
                               sim::Bottleneck::kPcieOrdering,
                               Symptom::kPauseFrames),
            9);
  EXPECT_EQ(label_by_mechanism("CX-6", "pair", gpu,
                               sim::Bottleneck::kPcieOrdering,
                               Symptom::kPauseFrames),
            12);
}

TEST(Catalog, MechanismLabelerDistinguishesTransport) {
  EXPECT_EQ(label_by_mechanism("CX-6", "pair", anomaly(1).concrete,
                               sim::Bottleneck::kRwqeBurstMiss,
                               Symptom::kPauseFrames),
            1);
  EXPECT_EQ(label_by_mechanism("CX-6", "pair", anomaly(5).concrete,
                               sim::Bottleneck::kRwqeBurstMiss,
                               Symptom::kPauseFrames),
            5);
  EXPECT_EQ(label_by_mechanism("P2100", "pair", anomaly(15).concrete,
                               sim::Bottleneck::kRwqeBurstMiss,
                               Symptom::kPauseFrames),
            15);
}

TEST(Catalog, MechanismLabelerUnknownReturnsZero) {
  EXPECT_EQ(label_by_mechanism("CX-6", "pair", anomaly(1).concrete,
                               sim::Bottleneck::kNone,
                               Symptom::kPauseFrames),
            0);
  EXPECT_EQ(label_by_mechanism("CX-5", "pair", anomaly(7).concrete,
                               sim::Bottleneck::kQpcCacheMiss,
                               Symptom::kLowThroughput),
            0);
}

// identify: the mechanism label wins; without one, the first region label
// of the witness; 0 when neither names a catalogued anomaly.
TEST(Catalog, IdentifyFallsBackToRegionLabels) {
  const Workload a15 = anomaly(15).concrete;
  EXPECT_EQ(identify("P2100", "pair", a15, sim::Bottleneck::kRwqeBurstMiss,
                     Symptom::kPauseFrames),
            label_by_mechanism("P2100", "pair", a15,
                               sim::Bottleneck::kRwqeBurstMiss,
                               Symptom::kPauseFrames));
  const std::vector<int> regions = label("P2100", a15, Symptom::kPauseFrames);
  ASSERT_FALSE(regions.empty());
  EXPECT_EQ(identify("P2100", "pair", a15, sim::Bottleneck::kNone,
                     Symptom::kPauseFrames),
            regions.front());
  EXPECT_TRUE(label("CX-5", a15, Symptom::kPauseFrames).empty());
  EXPECT_EQ(identify("CX-5", "pair", a15, sim::Bottleneck::kNone,
                     Symptom::kPauseFrames),
            0);
}

TEST(Catalog, MechanismLabelerAttributesFabricCongestionByScenario) {
  // Fabric-level mechanisms label by the scenario the discovery ran under,
  // not by the RNIC chip: 101 = hetero port-rate mismatch, 102 = fanin4
  // ToR oversubscription, unlabeled on the paper's identical pair.
  const Workload w = anomaly(1).concrete;
  EXPECT_EQ(label_by_mechanism("CX-6", "hetero", w,
                               sim::Bottleneck::kFabricCongestion,
                               Symptom::kPauseFrames),
            101);
  EXPECT_EQ(label_by_mechanism("P2100", "hetero", w,
                               sim::Bottleneck::kFabricCongestion,
                               Symptom::kPauseFrames),
            101);
  EXPECT_EQ(label_by_mechanism("CX-6", "fanin4", w,
                               sim::Bottleneck::kFabricCongestion,
                               Symptom::kLowThroughput),
            102);
  EXPECT_EQ(label_by_mechanism("CX-6", "pair", w,
                               sim::Bottleneck::kFabricCongestion,
                               Symptom::kPauseFrames),
            0);
  // NIC-level mechanisms ignore the fabric: same row under any scenario.
  EXPECT_EQ(label_by_mechanism("CX-6", "hetero", anomaly(7).concrete,
                               sim::Bottleneck::kQpcCacheMiss,
                               Symptom::kLowThroughput),
            7);
}

TEST(Catalog, RegionsRejectForeignWorkloads) {
  // A plain clean workload matches no region of its symptom class.
  Workload clean;
  clean.qp_type = QpType::kRC;
  clean.opcode = Opcode::kWrite;
  clean.num_qps = 8;
  clean.wqe_batch = 8;
  clean.mr_size = 1 * MiB;
  clean.pattern = {64 * KiB};
  EXPECT_TRUE(label("CX-6", clean, Symptom::kPauseFrames).empty());
  EXPECT_TRUE(label("CX-6", clean, Symptom::kLowThroughput).empty());
}

TEST(Catalog, SymptomStrings) {
  EXPECT_STREQ(to_string(Symptom::kPauseFrames), "pause frame");
  EXPECT_STREQ(to_string(Symptom::kLowThroughput), "low throup.");
}

}  // namespace
}  // namespace collie::catalog
