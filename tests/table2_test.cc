// The headline calibration test: every concrete Appendix-A trigger setting
// must reproduce its Table-2 symptom on its primary subsystem, and the
// mechanism labeler must map it back to its own anomaly id.
#include <gtest/gtest.h>

#include "catalog/anomalies.h"
#include "common/rng.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"

namespace collie {
namespace {

class Table2Test : public ::testing::TestWithParam<int> {};

TEST_P(Table2Test, ConcreteSettingReproducesSymptom) {
  const catalog::AnomalyInfo& a = catalog::anomaly(GetParam());
  const sim::Subsystem& sys = sim::subsystem(a.primary_subsystem);
  std::string why;
  ASSERT_TRUE(a.concrete.valid(&why)) << why;

  Rng rng(2024);
  const sim::SimResult r = sim::evaluate(sys, a.concrete, rng);
  const bool pause = r.pause_duration_ratio > 0.001;
  const bool low_tput =
      r.wire_utilization < 0.8 && r.pps_utilization < 0.8;

  if (a.symptom == catalog::Symptom::kPauseFrames) {
    EXPECT_TRUE(pause) << "anomaly #" << a.id << ": expected pause frames, "
                       << "pause ratio " << r.pause_duration_ratio;
  } else {
    EXPECT_FALSE(pause) << "anomaly #" << a.id
                        << ": unexpected pause frames";
    EXPECT_TRUE(low_tput) << "anomaly #" << a.id << ": wire util "
                          << r.wire_utilization << ", pps util "
                          << r.pps_utilization;
  }
}

TEST_P(Table2Test, RegionContainsItsConcreteSetting) {
  const catalog::AnomalyInfo& a = catalog::anomaly(GetParam());
  ASSERT_TRUE(static_cast<bool>(a.region));
  EXPECT_TRUE(a.region(a.concrete)) << "anomaly #" << a.id;
}

TEST_P(Table2Test, MechanismLabelerIdentifiesIt) {
  const catalog::AnomalyInfo& a = catalog::anomaly(GetParam());
  const sim::Subsystem& sys = sim::subsystem(a.primary_subsystem);
  Rng rng(2024);
  const sim::SimResult r = sim::evaluate(sys, a.concrete, rng);
  const int id = catalog::label_by_mechanism(a.chip, "pair", a.concrete,
                                             r.dominant, a.symptom);
  EXPECT_EQ(id, a.id) << "dominant=" << to_string(r.dominant);
}

INSTANTIATE_TEST_SUITE_P(AllAnomalies, Table2Test,
                         ::testing::Range(1, 19),
                         [](const auto& info) {
                           return "Anomaly" + std::to_string(info.param);
                         });

TEST(Table2, CountsMatchPaper) {
  // 18 total: 15 new + 3 previously known; 13 on subsystem F (CX-6),
  // 5 on subsystem H (P2100G); "7 of them are already fixed".
  const auto& all = catalog::all_anomalies();
  ASSERT_EQ(all.size(), 18u);
  int new_count = 0;
  int fixed_count = 0;
  for (const auto& a : all) {
    if (a.is_new) ++new_count;
    if (a.fixed) ++fixed_count;
  }
  EXPECT_EQ(new_count, 15);
  EXPECT_EQ(18 - new_count, 3);
  EXPECT_EQ(fixed_count, 7);
  EXPECT_EQ(catalog::anomalies_for_chip("CX-6").size(), 13u);
  EXPECT_EQ(catalog::anomalies_for_chip("P2100").size(), 5u);
}

TEST(Table2, FixesNeutralizeAnomalies) {
  // Anomaly #3's fix: raise the deployment MTU to 4096.
  {
    Workload w = catalog::anomaly(3).concrete;
    w.mtu = 4096;
    Rng rng(1);
    const auto r = sim::evaluate(sim::subsystem('F'), w, rng);
    EXPECT_LT(r.pause_duration_ratio, 0.001);
    EXPECT_GT(r.wire_utilization, 0.9);
  }
  // Anomaly #9's fix: force the RNIC into PCIe relaxed ordering.
  {
    sim::Subsystem fixed = sim::subsystem('E');
    fixed.link.forced_relaxed_ordering = true;
    Rng rng(1);
    const auto r = sim::evaluate(fixed, catalog::anomaly(9).concrete, rng);
    EXPECT_LT(r.pause_duration_ratio, 0.001);
  }
  // Anomaly #12's fix: correct the PCIe bridge ACSCtl configuration.
  {
    sim::Subsystem fixed = sim::subsystem('E');
    fixed.host.gpu_acs_misrouted = false;
    fixed.link.forced_relaxed_ordering = true;  // E also got the RO fix
    Rng rng(1);
    const auto r = sim::evaluate(fixed, catalog::anomaly(12).concrete, rng);
    EXPECT_LT(r.pause_duration_ratio, 0.001);
  }
}

TEST(Table2, Anomaly2SymptomDiffersFromAnomaly1) {
  // #1 and #2 share the root cause but differ in symptom: the burst mode
  // pauses, the steady mode only drops throughput (Appendix A).
  Rng rng(5);
  const auto r1 =
      sim::evaluate(sim::subsystem('F'), catalog::anomaly(1).concrete, rng);
  const auto r2 =
      sim::evaluate(sim::subsystem('F'), catalog::anomaly(2).concrete, rng);
  EXPECT_GT(r1.pause_duration_ratio, 0.001);
  EXPECT_LT(r2.pause_duration_ratio, 0.001);
  EXPECT_LT(r2.wire_utilization, 0.8);
}

TEST(Table2, SwitchingQpTypeBreaksAnomaly1) {
  // Appendix A: "#1 and #2 won't trigger anomalies if we only switch the
  // type of QP from UD to RC".
  Workload w = catalog::anomaly(1).concrete;
  w.qp_type = QpType::kRC;
  Rng rng(5);
  const auto r = sim::evaluate(sim::subsystem('F'), w, rng);
  EXPECT_LT(r.pause_duration_ratio, 0.001);
  EXPECT_GT(r.wire_utilization, 0.8);
}

}  // namespace
}  // namespace collie
