#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/monitor.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"
#include "workload/backend_sim.h"
#include "workload/engine.h"

namespace collie::sim {
namespace {

Workload clean_write(int qps = 8, u64 msg = 64 * KiB) {
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = qps;
  w.wqe_batch = 8;
  w.mr_size = 1 * MiB;
  w.pattern = {msg};
  w.mtu = 4096;
  return w;
}

SimResult eval(char sys, const Workload& w, u64 seed = 7) {
  Rng rng(seed);
  return evaluate(subsystem(sys), w, rng);
}

TEST(PerfModel, HealthyWorkloadHitsLineRate) {
  for (char id : {'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'}) {
    const SimResult r = eval(id, clean_write());
    EXPECT_GT(r.wire_utilization, 0.95) << "subsystem " << id;
    EXPECT_LT(r.pause_duration_ratio, 0.001) << "subsystem " << id;
    EXPECT_EQ(r.dominant, Bottleneck::kNone) << "subsystem " << id;
  }
}

TEST(PerfModel, TinyMessagesArePpsBoundNotAnomalous) {
  // 64B messages cannot reach the bps bound, but the wire-rate utilization
  // accounts for per-packet overhead, so a healthy NIC still shows as
  // spec-bound (the paper's definition counts either bound).
  Workload w = clean_write(64, 64);
  w.mtu = 1024;
  const SimResult r = eval('F', w);
  EXPECT_TRUE(r.wire_utilization > 0.8 || r.pps_utilization > 0.8);
  EXPECT_LT(r.pause_duration_ratio, 0.001);
}

TEST(PerfModel, DeterministicGivenSeed) {
  const SimResult a = eval('F', clean_write(), 99);
  const SimResult b = eval('F', clean_write(), 99);
  EXPECT_DOUBLE_EQ(a.rx_goodput_bps, b.rx_goodput_bps);
  EXPECT_DOUBLE_EQ(a.pause_duration_ratio, b.pause_duration_ratio);
}

TEST(PerfModel, EpochsCarryWarmupRamp) {
  Rng rng(3);
  SimConfig cfg;
  cfg.keep_epochs = true;
  const SimResult r = evaluate(subsystem('F'), clean_write(), rng, cfg);
  ASSERT_EQ(static_cast<int>(r.epochs.size()), cfg.epochs);
  const double early = r.epochs[0].counters.get(PerfCounter::kTxGoodputBps);
  const double late = r.epochs.back().counters.get(PerfCounter::kTxGoodputBps);
  EXPECT_LT(early, 0.7 * late);
}

TEST(PerfModel, QpcScalabilityCliff) {
  // Root cause #2: sending rate collapses past the QPC cache capacity for
  // small unbatched messages (anomaly #7 family), monotonically in #QPs.
  Workload w = clean_write(8, 512);
  w.mr_size = 64 * KiB;  // keep the MTT working set out of the picture
  w.wqe_batch = 1;
  w.send_wq_depth = 16;
  w.recv_wq_depth = 16;
  w.mtu = 1024;
  double prev_util = 1.0;
  for (int qps : {8, 128, 480, 2000}) {
    w.num_qps = qps;
    const SimResult r = eval('F', w);
    EXPECT_LE(r.wire_utilization, prev_util + 0.05) << qps << " qps";
    prev_util = r.wire_utilization;
    if (qps >= 480) {
      EXPECT_LT(r.wire_utilization, 0.8) << qps << " qps";
      EXPECT_LT(r.pps_utilization, 0.8) << qps << " qps";
      EXPECT_EQ(r.dominant, Bottleneck::kQpcCacheMiss);
      EXPECT_LT(r.pause_duration_ratio, 0.001);  // sender-side: no pauses
    }
  }
}

TEST(PerfModel, LargeMessagesHideIcmMisses) {
  // Appendix A: "our real applications do not meet them even when the
  // number of QPs exceeds 10K" because large requests hide the miss.
  Workload w = clean_write(10000, 64 * KiB);
  const SimResult r = eval('F', w);
  EXPECT_GT(r.wire_utilization, 0.9);
  EXPECT_EQ(r.dominant, Bottleneck::kNone);
}

TEST(PerfModel, MrScalabilityCliff) {
  Workload w = clean_write(24, 512);
  w.wqe_batch = 1;
  w.mtu = 1024;
  w.mr_size = 64 * KiB;
  w.mrs_per_qp = 4;
  const SimResult ok = eval('F', w);
  EXPECT_GT(ok.wire_utilization, 0.9);
  w.mrs_per_qp = 1024;  // ~24K MRs
  const SimResult bad = eval('F', w);
  EXPECT_LT(bad.wire_utilization, 0.8);
  EXPECT_EQ(bad.dominant, Bottleneck::kMttCacheMiss);
}

TEST(PerfModel, ReadSmallMtuPacketBottleneck) {
  // Anomaly #3: RC READ of large messages collapses at MTU 1024 on the
  // 200G CX-6 and is clean at MTU >= 2048.
  Workload w = clean_write(8, 4 * MiB);
  w.opcode = Opcode::kRead;
  w.mr_size = 4 * MiB;
  w.mtu = 2048;
  EXPECT_GT(eval('F', w).wire_utilization, 0.9);
  w.mtu = 1024;
  const SimResult bad = eval('F', w);
  EXPECT_GT(bad.pause_duration_ratio, 0.001);
  EXPECT_EQ(bad.dominant, Bottleneck::kReadPacketProcessing);
  // The 100G part has headroom: same workload stays clean (the paper's
  // "not a problem with 100 Gbps RNICs from the same vendor").
  EXPECT_LT(eval('D', w).pause_duration_ratio, 0.001);
}

TEST(PerfModel, OrderingStallNeedsAllConditions) {
  // Anomaly #9: bidirectional + small/large mix inside an SG list on the
  // strict-ordering platform.
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = 8;
  w.wqe_batch = 8;
  w.mr_size = 4 * MiB;
  w.mtu = 4096;
  w.sge_per_wqe = 3;
  w.pattern = {128, 64 * KiB, 1024};
  w.bidirectional = true;
  const SimResult bad = eval('E', w);
  EXPECT_GT(bad.pause_duration_ratio, 0.01);
  EXPECT_EQ(bad.dominant, Bottleneck::kPcieOrdering);

  Workload uni = w;
  uni.bidirectional = false;
  EXPECT_LT(eval('E', uni).pause_duration_ratio, 0.001);

  Workload uniform = w;
  uniform.pattern = {8 * KiB, 8 * KiB, 8 * KiB};
  EXPECT_LT(eval('E', uniform).pause_duration_ratio, 0.001);

  // Healthy platform (relaxed ordering effective): no stall.
  EXPECT_LT(eval('B', w).pause_duration_ratio, 0.001);
}

TEST(PerfModel, CrossSocketBidirectionalCollapse) {
  // Anomaly #11 on subsystem G: even one connection pauses when
  // bidirectional traffic crosses the weak socket interconnect.
  Workload w = clean_write(1, 256 * KiB);
  w.mr_size = 4 * MiB;
  w.wqe_batch = 16;
  w.bidirectional = true;
  w.remote_mem = {topo::MemKind::kDram, 2};  // socket 1 under NPS 2
  const SimResult bad = eval('G', w);
  EXPECT_GT(bad.pause_duration_ratio, 0.001);
  EXPECT_EQ(bad.dominant, Bottleneck::kHostTopologyPath);
  // Unidirectional cross-socket is fine.
  Workload uni = w;
  uni.bidirectional = false;
  EXPECT_LT(eval('G', uni).pause_duration_ratio, 0.001);
  // Local memory bidirectional is fine.
  Workload local = w;
  local.remote_mem = {topo::MemKind::kDram, 0};
  EXPECT_LT(eval('G', local).pause_duration_ratio, 0.001);
}

TEST(PerfModel, LoopbackIncast) {
  // Anomaly #13: loopback + receive traffic pauses on the CX-6...
  Workload w = clean_write(16, 256 * KiB);
  w.mr_size = 4 * MiB;
  w.wqe_batch = 16;
  w.loopback = true;
  const SimResult bad = eval('F', w);
  EXPECT_GT(bad.pause_duration_ratio, 0.001);
  // ...but not on the P2100G, which rate-limits loopback traffic.
  Workload h = w;
  const SimResult ok = eval('H', h);
  EXPECT_LT(ok.pause_duration_ratio, 0.001);
}

TEST(PerfModel, UdBatchBurstPause) {
  // Anomaly #1 trigger boundaries: batch >= 64 AND recv WQ >= 256.
  Workload w;
  w.qp_type = QpType::kUD;
  w.opcode = Opcode::kSend;
  w.num_qps = 1;
  w.mtu = 2048;
  w.pattern = {2048};
  w.send_wq_depth = 256;
  w.recv_wq_depth = 256;
  w.wqe_batch = 64;
  EXPECT_GT(eval('F', w).pause_duration_ratio, 0.001);
  Workload small_batch = w;
  small_batch.wqe_batch = 16;
  EXPECT_LT(eval('F', small_batch).pause_duration_ratio, 0.001);
  Workload shallow = w;
  shallow.send_wq_depth = 128;
  shallow.recv_wq_depth = 128;
  EXPECT_LT(eval('F', shallow).pause_duration_ratio, 0.001);
}

TEST(PerfModel, ExperimentCostBounds) {
  // "Each experiment we do requires 20-60 seconds, mostly depending on the
  // number of QPs to create and the number of MRs to register" (§5).
  Workload small = clean_write(1);
  EXPECT_GE(experiment_cost_seconds(small), 20.0);
  EXPECT_LE(experiment_cost_seconds(small), 25.0);
  Workload big = clean_write(20000);
  big.mrs_per_qp = 10;
  EXPECT_GT(experiment_cost_seconds(big),
            experiment_cost_seconds(small));
  big.bidirectional = true;
  big.mrs_per_qp = 1000;
  EXPECT_LE(experiment_cost_seconds(big), 60.0);
}

// Property sweep: no workload may produce pause frames from a purely
// sender-side bottleneck, and utilizations stay in [0, ~1].
class PerfModelPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(PerfModelPropertyTest, InvariantsHoldOnRandomWorkloads) {
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    Workload w = clean_write();
    // Scramble within valid ranges.
    w.qp_type = static_cast<QpType>(rng.uniform_int(0, 2));
    w.opcode = Opcode::kSend;
    if (transport_supports(w.qp_type, Opcode::kWrite) && rng.bernoulli(0.5)) {
      w.opcode = Opcode::kWrite;
    }
    w.num_qps = static_cast<int>(rng.log_uniform_int(1, 20000));
    w.wqe_batch = 1 << rng.uniform_int(0, 7);
    w.send_wq_depth = std::max(w.wqe_batch, 16 << rng.uniform_int(0, 6));
    w.recv_wq_depth = 16 << rng.uniform_int(0, 6);
    w.sge_per_wqe = static_cast<int>(rng.uniform_int(1, 4));
    w.mtu = 256u << rng.uniform_int(0, 4);
    w.mrs_per_qp = static_cast<int>(rng.log_uniform_int(1, 64));
    w.pattern.assign(static_cast<std::size_t>(rng.uniform_int(1, 8)),
                     1ull << rng.uniform_int(6, 16));
    if (w.qp_type == QpType::kUD) {
      // A UD datagram (sum of its SGEs) must fit one MTU.
      const u64 per_sge = std::max<u64>(
          1, w.mtu / static_cast<u32>(w.sge_per_wqe));
      for (u64& s : w.pattern) s = std::min<u64>(s, per_sge);
    }
    w.bidirectional = rng.bernoulli(0.5);
    ASSERT_TRUE(w.valid());

    const char sys = "FH"[rng.uniform_int(0, 1)];
    const SimResult r = eval(sys, w, rng.next_u64());
    EXPECT_GE(r.wire_utilization, 0.0);
    EXPECT_LE(r.wire_utilization, 1.1);
    EXPECT_GE(r.pps_utilization, 0.0);
    EXPECT_GE(r.pause_duration_ratio, 0.0);
    EXPECT_LE(r.pause_duration_ratio, 1.0);
    EXPECT_GE(r.rx_goodput_bps, 0.0);
    // Sender-side bottlenecks never pause.
    if (r.dominant == Bottleneck::kQpcCacheMiss ||
        r.dominant == Bottleneck::kMttCacheMiss ||
        r.dominant == Bottleneck::kMtuSchedulerQuirk ||
        r.dominant == Bottleneck::kRwqeSteadyMiss) {
      EXPECT_LT(r.pause_duration_ratio, 0.01)
          << to_string(r.dominant) << " " << w.describe();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerfModelPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- Fabric scenarios -----------------------------------------------------

// The acceptance bar for the N-port generalization: applying the "pair"
// scenario must reproduce the catalog subsystem bit-for-bit, pause ratios
// included.
TEST(PerfModelFabric, PairScenarioReproducesBaselineExactly) {
  for (char id : {'A', 'F', 'H'}) {
    const Subsystem& base = subsystem(id);
    const Subsystem paired = with_fabric(base, net::fabric_scenario("pair"));
    for (const u64 seed : {u64{7}, u64{19}}) {
      for (const Workload& w :
           {clean_write(), clean_write(2048, 512), clean_write(64, 4 * KiB)}) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        const SimResult a = evaluate(base, w, rng_a);
        const SimResult b = evaluate(paired, w, rng_b);
        EXPECT_DOUBLE_EQ(a.pause_duration_ratio, b.pause_duration_ratio);
        EXPECT_DOUBLE_EQ(a.rx_goodput_bps, b.rx_goodput_bps);
        EXPECT_DOUBLE_EQ(a.wire_utilization, b.wire_utilization);
        EXPECT_DOUBLE_EQ(a.pps_utilization, b.pps_utilization);
        EXPECT_EQ(a.dominant, b.dominant);
        EXPECT_DOUBLE_EQ(a.fabric_pause_ratio, 0.0);
        EXPECT_DOUBLE_EQ(b.fabric_pause_ratio, 0.0);
      }
    }
  }
}

TEST(PerfModelFabric, HeteroPairCongestsTheSlowPort) {
  const Subsystem hetero =
      with_fabric(subsystem('F'), net::fabric_scenario("hetero"));
  // Host B runs a GPU-less platform in the catalog hetero scenario.
  EXPECT_TRUE(hetero.host_b.gpus.empty());
  EXPECT_FALSE(hetero.host.gpus.empty());
  // A wire-saturating sender offers 200G into the 100G port: the switch
  // backpressures it with PFC, and the model attributes that pause to the
  // fabric, not to the subsystem.
  Rng rng(7);
  const SimResult r = evaluate(hetero, clean_write(), rng);
  EXPECT_GT(r.fabric_pause_ratio, 0.2);
  EXPECT_GT(r.pause_duration_ratio, 0.2);
  // Delivered traffic saturates the achievable (port-capped) wire bound, so
  // the workload is healthy by the utilization condition.
  EXPECT_GT(r.wire_utilization, 0.9);
}

TEST(PerfModelFabric, TorFanInScalesExpectedPause) {
  const Subsystem fanin =
      with_fabric(subsystem('F'), net::fabric_scenario("fanin4"));
  Rng rng(7);
  const SimResult r = evaluate(fanin, clean_write(), rng);
  // Four senders share one 4:1-oversubscribed receiver: each gets a quarter
  // share, so three quarters of the offered load is paused away.
  EXPECT_GT(r.fabric_pause_ratio, 0.6);
  EXPECT_GT(r.pause_duration_ratio, 0.6);
  // Per-port accounting covers every fabric port (A, B, 3 co-senders).
  ASSERT_EQ(r.port_pause_ratio.size(), 5u);

  // The reverse direction shares host B's egress the same way: a READ
  // workload (data flows B -> A) saturating its quarter share is healthy,
  // not a low-throughput anomaly.
  Workload read = clean_write();
  read.opcode = Opcode::kRead;
  Rng rng_read(7);
  const SimResult rr = evaluate(fanin, read, rng_read);
  EXPECT_GT(rr.wire_utilization, 0.9);
  EXPECT_LT(rr.pause_duration_ratio, 0.001);

  // Against a milder 2:1 fan-in the expected pause shrinks.
  net::FabricScenario mild = net::fabric_scenario("fanin4");
  mild.fan_in = 2;
  mild.oversubscription = 2.0;
  Rng rng2(7);
  const SimResult r2 =
      evaluate(with_fabric(subsystem('F'), mild), clean_write(), rng2);
  EXPECT_LT(r2.fabric_pause_ratio, r.fabric_pause_ratio);
}

// ---- Pinned golden outputs -------------------------------------------------

// Raw model outputs for every (subsystem x fabric x workload) row with
// congestion control disabled, pinned bit for bit (hexfloat, exact double
// equality, not ULP-tolerant).  The CC layer's compatibility contract is
// that arming it without a DCQCN workload changes none of them.
//
// The steady-state columns (goodput, wire bps, utilizations, dominant)
// predate the CC layer.  The pause columns depend on the jitter stream and
// were regenerated once, when the model moved to the counter-based stream
// (DESIGN.md, "Regenerating the golden rows"): a mismatch prints the
// current row as a source line next to the pinned one.
struct GoldenRow {
  char sys;
  const char* fabric;
  int workload;  // 0 = clean_write(), 1 = clean_write(2048, 512), 2 = deep UD
  double rx_goodput_bps;
  double tx_wire_bps;
  double pause_duration_ratio;
  double fabric_pause_ratio;
  double wire_utilization;
  double pps_utilization;
  const char* dominant;
};

Workload golden_workload(int index) {
  switch (index) {
    case 0:
      return clean_write();
    case 1:
      return clean_write(2048, 512);
    default: {
      Workload w = clean_write(2048, 512);
      w.qp_type = QpType::kUD;
      w.opcode = Opcode::kSend;
      w.recv_wq_depth = 1024;
      w.mtu = 1024;
      return w;
    }
  }
}

// One kGoldenRows entry as source text, doubles in exact hexfloat.
std::string row_source(const GoldenRow& g) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{'%c', \"%s\", %d, %a, %a, %a, %a, %a, %a, \"%s\"},", g.sys,
                g.fabric, g.workload, g.rx_goodput_bps, g.tx_wire_bps,
                g.pause_duration_ratio, g.fabric_pause_ratio,
                g.wire_utilization, g.pps_utilization, g.dominant);
  return buf;
}

GoldenRow current_row(const GoldenRow& key, const SimResult& r) {
  return {key.sys,
          key.fabric,
          key.workload,
          r.rx_goodput_bps,
          r.tx_wire_bps,
          r.pause_duration_ratio,
          r.fabric_pause_ratio,
          r.wire_utilization,
          r.pps_utilization,
          to_string(r.dominant)};
}

const GoldenRow kGoldenRows[] = {
    {'B', "pair", 0, 0x1.6d37b114771d8p+36, 0x1.74876e7ffffffp+36, 0x0p+0, 0x0p+0, 0x1.fffffffffffffp-1, 0x1.105370cf9f0d4p-5, "none"},
    {'B', "pair", 1, 0x1.89641a9641a97p+35, 0x1.c86522d8522d9p+35, 0x0p+0, 0x0p+0, 0x1.39a1de5aa0f82p-1, 0x1.255567aaabd01p-3, "mtt_cache_miss"},
    {'B', "pair", 2, 0x1.2728944f68d4fp+35, 0x1.c86522d8522d9p+35, 0x0p+0, 0x0p+0, 0x1.d6a1d7d5bb17ep-2, 0x1.b82c1a691544fp-4, "mtt_cache_miss"},
    {'B', "hetero", 0, 0x1.6d37b114771d8p+35, 0x1.74876e7ffffffp+35, 0x1.fd0f1a42ec318p-2, 0x1.ffffffffffffep-2, 0x1.fffffffffffffp-1, 0x1.105370cf9f0d4p-6, "fabric_congestion"},
    {'B', "hetero", 1, 0x1.411a3b0b34944p+35, 0x1.74876e8p+35, 0x1.6ebbaf47e3f94p-3, 0x1.7855df3eec2dp-3, 0x1p+0, 0x1.dedcd9fa71f82p-4, "fabric_congestion"},
    {'B', "hetero", 2, 0x1.e1d781b2203f9p+34, 0x1.74876e8p+35, 0x1.6ebbaf47e3f94p-3, 0x1.7855df3eec2dp-3, 0x1.802665709372ep-1, 0x1.67498cbfde48p-4, "fabric_congestion"},
    {'B', "fanin4", 0, 0x1.6d37b114771d8p+34, 0x1.74876e7ffffffp+34, 0x1.7f43c690bb0c4p-1, 0x1.8p-1, 0x1.fffffffffffffp-1, 0x1.105370cf9f0d4p-5, "fabric_congestion"},
    {'B', "fanin4", 1, 0x1.411a3b0b34944p+34, 0x1.74876e8p+34, 0x1.2dd775e8fc7f3p-1, 0x1.2f0abbe7dd85ap-1, 0x1p+0, 0x1.dedcd9fa71f82p-3, "fabric_congestion"},
    {'B', "fanin4", 2, 0x1.e1d781b2203f9p+33, 0x1.74876e8p+34, 0x1.2dd775e8fc7f3p-1, 0x1.2f0abbe7dd85ap-1, 0x1.802665709372ep-1, 0x1.67498cbfde48p-3, "fabric_congestion"},
    {'F', "pair", 0, 0x1.6d37b114771d8p+37, 0x1.74876e7ffffffp+37, 0x0p+0, 0x0p+0, 0x1.fffffffffffffp-1, 0x1.c7fcd4b4f2816p-6, "none"},
    {'F', "pair", 1, 0x1.5d1cfe1af473ep+35, 0x1.9506a2cd459a7p+35, 0x0p+0, 0x0p+0, 0x1.1654e9e609dd3p-2, 0x1.b3e17d0cc39dap-5, "mtt_cache_miss"},
    {'F', "pair", 2, 0x1.17f1f2553ad1fp+34, 0x1.9506a2cd459a7p+35, 0x0p+0, 0x0p+0, 0x1.be5fd3533d284p-4, 0x1.5d8596190c11p-6, "mtt_cache_miss"},
    {'F', "hetero", 0, 0x1.6d37b114771d8p+36, 0x1.74876e7ffffffp+36, 0x1.fd0f1a42ec318p-2, 0x1.ffffffffffffep-2, 0x1.fffffffffffffp-1, 0x1.c7fcd4b4f2816p-7, "fabric_congestion"},
    {'F', "hetero", 1, 0x1.5d1cfe1af473ep+35, 0x1.9506a2cd459a7p+35, 0x0p+0, 0x0p+0, 0x1.1654e9e609dd3p-1, 0x1.b3e17d0cc39dap-5, "mtt_cache_miss"},
    {'F', "hetero", 2, 0x1.17f1f2553ad1fp+34, 0x1.9506a2cd459a7p+35, 0x0p+0, 0x0p+0, 0x1.be5fd3533d284p-3, 0x1.5d8596190c11p-6, "mtt_cache_miss"},
    {'F', "fanin4", 0, 0x1.6d37b114771d8p+35, 0x1.74876e7ffffffp+35, 0x1.7f43c690bb0c4p-1, 0x1.8p-1, 0x1.fffffffffffffp-1, 0x1.c7fcd4b4f2816p-6, "fabric_congestion"},
    {'F', "fanin4", 1, 0x1.411a3b0b34944p+35, 0x1.74876e8p+35, 0x1.32ffa3ffacda2p-4, 0x1.48a38e38e38dp-4, 0x1p+0, 0x1.90e886dd94ff6p-3, "fabric_congestion"},
    {'F', "fanin4", 2, 0x1.017be4c42c34fp+34, 0x1.74876e8p+35, 0x1.32ffa3ffacda2p-4, 0x1.48a38e38e38dp-4, 0x1.9a8f53f714534p-2, 0x1.417a6eb04527ep-4, "fabric_congestion"},
    {'H', "pair", 0, 0x1.6d37b114771d8p+36, 0x1.74876e7ffffffp+36, 0x0p+0, 0x0p+0, 0x1.fffffffffffffp-1, 0x1.bd9fcfdf615b9p-6, "none"},
    {'H', "pair", 1, 0x1.52d8600b1a708p+34, 0x1.891d076ce1ac8p+34, 0x0p+0, 0x0p+0, 0x1.0e253d5f45cf3p-2, 0x1.9d721e2493e68p-5, "mtt_cache_miss"},
    {'H', "pair", 2, 0x1.9101cfe424edcp+32, 0x1.d13b1a2faed7dp+32, 0x1.67a5e32da73cap-1, 0x0p+0, 0x1.3fb447a6f0172p-4, 0x1.e94b134fe3435p-7, "rwqe_burst_miss"},
    {'H', "hetero", 0, 0x1.6d37b114771d8p+35, 0x1.74876e7ffffffp+35, 0x1.fd0f1a42ec318p-2, 0x1.ffffffffffffep-2, 0x1.fffffffffffffp-1, 0x1.bd9fcfdf615b9p-7, "fabric_congestion"},
    {'H', "hetero", 1, 0x1.52d8600b1a708p+34, 0x1.891d076ce1ac8p+34, 0x0p+0, 0x0p+0, 0x1.0e253d5f45cf3p-1, 0x1.9d721e2493e68p-5, "mtt_cache_miss"},
    {'H', "hetero", 2, 0x1.9101cfe424edcp+32, 0x1.d13b1a2faed7dp+32, 0x1.67a5e32da73cap-1, 0x0p+0, 0x1.3fb447a6f0172p-3, 0x1.e94b134fe3435p-7, "rwqe_burst_miss"},
    {'H', "fanin4", 0, 0x1.6d37b114771d8p+34, 0x1.74876e7ffffffp+34, 0x1.7f43c690bb0c4p-1, 0x1.8p-1, 0x1.fffffffffffffp-1, 0x1.bd9fcfdf615b9p-6, "fabric_congestion"},
    {'H', "fanin4", 1, 0x1.411a3b0b34944p+34, 0x1.74876e8p+34, 0x1.81d11ef65e152p-5, 0x1.acf3eec2cd23p-5, 0x1p+0, 0x1.87cbf82a00282p-3, "fabric_congestion"},
    {'H', "fanin4", 2, 0x1.9101cfe424edcp+30, 0x1.d13b1a2faed7dp+30, 0x1.d9e978cb69cf2p-1, 0x1.acf3eec2cd23p-5, 0x1.3fb447a6f0172p-4, 0x1.e94b134fe3435p-7, "rwqe_burst_miss"},
};

TEST(PerfModelGolden, CcDisabledScenariosMatchGoldenRowsBitForBit) {
  for (const GoldenRow& row : kGoldenRows) {
    const Subsystem sys = with_fabric(subsystem(row.sys),
                                      net::fabric_scenario(row.fabric));
    Rng rng(7);
    const SimResult r = evaluate(sys, golden_workload(row.workload), rng);
    EXPECT_EQ(row_source(current_row(row, r)), row_source(row));
    EXPECT_EQ(r.cc_suppressed_ratio, 0.0) << row_source(row);
  }
}

// The compiled hot path must reproduce every pinned golden row bit-for-bit
// — through one EvalScratch reused across all 27 rows, which is exactly how
// a campaign worker drives it.  The uncompiled overload stays compiled-in
// as the reference; both are checked against the hexfloat pins and against
// each other, including the RNG stream position after each call.
TEST(PerfModelGolden, CompiledScenarioPathMatchesGoldenRowsBitForBit) {
  EvalScratch scratch;  // deliberately shared across rows
  for (const GoldenRow& row : kGoldenRows) {
    const Subsystem sys = with_fabric(subsystem(row.sys),
                                      net::fabric_scenario(row.fabric));
    const CompiledScenario compiled(sys);
    Rng rng(7);
    Rng ref_rng(7);
    const Workload w = golden_workload(row.workload);
    const SimResult& r = evaluate(compiled, w, rng, scratch);
    const std::string tag = std::string(1, row.sys) + "/" + row.fabric +
                            "/w" + std::to_string(row.workload);
    EXPECT_EQ(r.rx_goodput_bps, row.rx_goodput_bps) << tag;
    EXPECT_EQ(r.tx_wire_bps, row.tx_wire_bps) << tag;
    EXPECT_EQ(r.pause_duration_ratio, row.pause_duration_ratio) << tag;
    EXPECT_EQ(r.fabric_pause_ratio, row.fabric_pause_ratio) << tag;
    EXPECT_EQ(r.wire_utilization, row.wire_utilization) << tag;
    EXPECT_EQ(r.pps_utilization, row.pps_utilization) << tag;
    EXPECT_STREQ(to_string(r.dominant), row.dominant) << tag;
    EXPECT_EQ(r.cc_suppressed_ratio, 0.0) << tag;

    const SimResult ref = evaluate(sys, w, ref_rng);
    EXPECT_EQ(r.rx_pps, ref.rx_pps) << tag;
    EXPECT_EQ(r.tx_goodput_bps, ref.tx_goodput_bps) << tag;
    EXPECT_EQ(r.bottleneck_note, ref.bottleneck_note) << tag;
    ASSERT_EQ(r.samples.size(), ref.samples.size()) << tag;
    for (std::size_t k = 0; k < r.samples.size(); ++k) {
      EXPECT_EQ(r.samples[k].perf, ref.samples[k].perf) << tag;
      EXPECT_EQ(r.samples[k].diag, ref.samples[k].diag) << tag;
    }
    EXPECT_EQ(r.counters.perf, ref.counters.perf) << tag;
    EXPECT_EQ(r.counters.diag, ref.counters.diag) << tag;
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << tag;
  }
}

// ---- RNG work count ---------------------------------------------------------

// One evaluate() reads exactly one next_u64() from the caller's Rng — the
// key of its jitter stream — on every golden row, stalled or not, with or
// without the full epoch series, on both evaluate paths.
TEST(PerfModelWorkCount, EvaluateAdvancesTheRngByExactlyOneDraw) {
  int stalled = 0;
  int unstalled = 0;
  EvalScratch scratch;
  for (const GoldenRow& row : kGoldenRows) {
    const Subsystem sys = with_fabric(subsystem(row.sys),
                                      net::fabric_scenario(row.fabric));
    const CompiledScenario compiled(sys);
    const Workload w = golden_workload(row.workload);
    for (const bool keep : {false, true}) {
      SimConfig cfg;
      cfg.keep_epochs = keep;
      Rng one_draw(7);
      (void)one_draw.next_u64();
      Rng rng(7);
      const SimResult r = evaluate(sys, w, rng, cfg);
      EXPECT_EQ(rng.state(), one_draw.state()) << row_source(row);
      Rng hot(7);
      (void)evaluate(compiled, w, hot, scratch, cfg);
      EXPECT_EQ(hot.state(), one_draw.state()) << row_source(row);
      ++(r.pause_duration_ratio > 0.0 ? stalled : unstalled);
    }
  }
  EXPECT_GT(stalled, 0);
  EXPECT_GT(unstalled, 0);
}

// SimBackend::measure draws once per attempt: the first evaluation plus one
// per re-measurement.  A noisier config makes some probes unstable so the
// re-measurement path is exercised.
TEST(PerfModelWorkCount, SimBackendMeasureDrawsOncePerAttempt) {
  workload::EngineOptions opts;
  opts.sim.jitter = 0.08;
  int remeasured = 0;
  int single = 0;
  EvalScratch scratch;
  workload::Measurement m;
  for (const GoldenRow& row : kGoldenRows) {
    const Subsystem sys = with_fabric(subsystem(row.sys),
                                      net::fabric_scenario(row.fabric));
    workload::SimBackend backend(sys, opts);
    for (u64 seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      Rng ref(seed);
      m.remeasure_count = 0;
      backend.measure(golden_workload(row.workload), rng, scratch, m);
      for (int i = 0; i <= m.remeasure_count; ++i) (void)ref.next_u64();
      EXPECT_EQ(rng.state(), ref.state())
          << row_source(row) << " seed " << seed;
      ++(m.remeasure_count > 0 ? remeasured : single);
    }
  }
  EXPECT_GT(remeasured, 0);
  EXPECT_GT(single, 0);
}

// The full series is the same rollout, not a second model: building it
// changes no output, and its sampled epochs (4, 10, 16, 23) carry exactly
// the four samples.
TEST(PerfModelGolden, EpochSeriesCarriesTheSamplesAtSampledEpochs) {
  for (const GoldenRow& row : kGoldenRows) {
    const Subsystem sys = with_fabric(subsystem(row.sys),
                                      net::fabric_scenario(row.fabric));
    const Workload w = golden_workload(row.workload);
    SimConfig full;
    full.keep_epochs = true;
    Rng rng_lean(7);
    Rng rng_full(7);
    const SimResult lean = evaluate(sys, w, rng_lean);
    const SimResult r = evaluate(sys, w, rng_full, full);
    EXPECT_EQ(row_source(current_row(row, r)), row_source(row));
    EXPECT_EQ(r.port_pause_ratio, lean.port_pause_ratio) << row_source(row);
    ASSERT_EQ(r.samples.size(), 4u);
    ASSERT_EQ(lean.samples.size(), 4u);
    ASSERT_EQ(r.epochs.size(), 24u);
    const int sampled[] = {4, 10, 16, 23};
    for (int k = 0; k < 4; ++k) {
      const CounterSample& at = r.epochs[static_cast<std::size_t>(sampled[k])]
                                    .counters;
      EXPECT_EQ(at.perf, r.samples[static_cast<std::size_t>(k)].perf);
      EXPECT_EQ(at.diag, r.samples[static_cast<std::size_t>(k)].diag);
      EXPECT_EQ(lean.samples[static_cast<std::size_t>(k)].perf, at.perf);
      EXPECT_EQ(lean.samples[static_cast<std::size_t>(k)].diag, at.diag);
    }
    // The headline pause ratio is the mean of the post-warmup epochs'.
    double sum = 0.0;
    for (int e = 4; e < 24; ++e) {
      sum += r.epochs[static_cast<std::size_t>(e)].pause_fraction * 0.25;
    }
    EXPECT_EQ(sum / 5.0, r.pause_duration_ratio) << row_source(row);
  }
}

// Arming the fabric+NIC with a CC scenario changes nothing as long as the
// workload leaves its DCQCN reaction point off.
TEST(PerfModelGolden, CcArmedButWorkloadOffStillMatchesGoldens) {
  for (const GoldenRow& row : kGoldenRows) {
    const Subsystem sys = with_cc(
        with_fabric(subsystem(row.sys), net::fabric_scenario(row.fabric)),
        nic::cc_scenario("dcqcn"));
    ASSERT_TRUE(sys.cc_armed());
    Rng rng(7);
    Workload w = golden_workload(row.workload);
    w.dcqcn = false;
    const SimResult r = evaluate(sys, w, rng);
    EXPECT_EQ(r.rx_goodput_bps, row.rx_goodput_bps);
    EXPECT_EQ(r.pause_duration_ratio, row.pause_duration_ratio);
    EXPECT_EQ(r.fabric_pause_ratio, row.fabric_pause_ratio);
    EXPECT_EQ(r.wire_utilization, row.wire_utilization);
  }
}

// The rows above all run with the reaction point off.  These pin the DCQCN
// co-simulation itself: the golden workloads with w.dcqcn = true under the
// catalog "dcqcn" scenario on the congested fabrics, bit for bit, plus the
// two CC columns.  `crippled` runs the Noisy Neighbor tuning (R_AI = 1 Mbps,
// g = 1).  The rows were captured from the limiter-driven reference loop
// (tests/dcqcn_property_test.cc); the solver kernel and the scratch memo
// must reproduce them.
struct CcGoldenRow {
  GoldenRow row;
  bool crippled;
  double cc_suppressed_ratio;
  double cc_mark_probability;
};

std::string cc_row_source(const CcGoldenRow& g) {
  char buf[640];
  std::snprintf(buf, sizeof buf, "{%s %s, %a, %a},",
                row_source(g.row).c_str(), g.crippled ? "true" : "false",
                g.cc_suppressed_ratio, g.cc_mark_probability);
  return buf;
}

CcGoldenRow current_cc_row(const CcGoldenRow& key, const SimResult& r) {
  return {current_row(key.row, r), key.crippled, r.cc_suppressed_ratio,
          r.cc_mark_probability};
}

Workload cc_golden_workload(const CcGoldenRow& g) {
  Workload w = golden_workload(g.row.workload);
  w.dcqcn = true;
  if (g.crippled) {
    w.dcqcn_rate_ai_mbps = 1.0;
    w.dcqcn_g = 1.0;
  }
  return w;
}

const CcGoldenRow kCcGoldenRows[] = {
    {{'B', "hetero", 0, 0x1.6d358ff68dd33p+35, 0x1.748542785d6a1p+35, 0x0p+0, 0x0p+0, 0x1.fffd03cc65c81p-1, 0x1.1051da57aa60ep-6, "fabric_congestion"}, false, 0x1.00017e19cd1bfp-1, 0x1.a68a82346ebccp-8},
    {{'B', "hetero", 1, 0x1.4002c41b17a98p+35, 0x1.734335836e73ap+35, 0x0p+0, 0x0p+0, 0x1.fe42645009e84p-1, 0x1.dd3c156a8f27fp-4, "none"}, false, 0x1.7e04c4ece7098p-3, 0x1.e1ff0d164b908p-13},
    {{'B', "hetero", 2, 0x1.e034255f90697p+34, 0x1.734335836e73ap+35, 0x0p+0, 0x0p+0, 0x1.7ed80f41c3a13p-1, 0x1.6610da12cb14ap-4, "rwqe_steady_miss"}, false, 0x1.7e04c4ece7098p-3, 0x1.e1ff0d164b908p-13},
    {{'B', "fanin4", 0, 0x1.6d36d528210ep+34, 0x1.74868e2c8eb76p+34, 0x0p+0, 0x0p+0, 0x1.fffecbb052f1dp-1, 0x1.1052ccd30c44dp-5, "fabric_congestion"}, false, 0x1.80004d13eb438p-1, 0x1.5a1a7d4f8dd6ep-6},
    {{'B', "fanin4", 1, 0x1.3ffc71aa25731p+34, 0x1.733bdfde65728p+34, 0x0p+0, 0x0p+0, 0x1.fe384fb28d4e6p-1, 0x1.dd32a7d2617dbp-3, "none"}, false, 0x1.2fc4b5d1cc126p-1, 0x1.d798df257c1c3p-12},
    {{'B', "fanin4", 2, 0x1.e02aa8c367059p+33, 0x1.733bdfde65728p+34, 0x0p+0, 0x0p+0, 0x1.7ed07f0a1f352p-1, 0x1.6609c72ba8585p-3, "rwqe_steady_miss"}, false, 0x1.2fc4b5d1cc126p-1, 0x1.d798df257c1c3p-12},
    {{'F', "hetero", 0, 0x1.6cf3bd5d03fe4p+36, 0x1.74421e8780b2bp+36, 0x0p+0, 0x0p+0, 0x1.ffa0bcdf5406ap-1, 0x1.c7a7fd82cc228p-7, "fabric_congestion"}, false, 0x1.002fa19055fcap-1, 0x1.adf6e2e3d6f85p-10},
    {{'F', "hetero", 1, 0x1.5d1cfe1af473ep+35, 0x1.9506a2cd459a7p+35, 0x0p+0, 0x0p+0, 0x1.1654e9e609dd3p-1, 0x1.b3e17d0cc39dap-5, "mtt_cache_miss"}, false, 0x0p+0, 0x0p+0},
    {{'F', "hetero", 2, 0x1.17f1f2553ad1fp+34, 0x1.9506a2cd459a7p+35, 0x0p+0, 0x0p+0, 0x1.be5fd3533d284p-3, 0x1.5d8596190c11p-6, "mtt_cache_miss"}, false, 0x0p+0, 0x0p+0},
    {{'F', "fanin4", 0, 0x1.6d15126a545ffp+35, 0x1.74641e68b5506p+35, 0x0p+0, 0x0p+0, 0x1.ffcf7764c0517p-1, 0x1.c7d19b5795492p-6, "fabric_congestion"}, false, 0x1.800c2226cfebap-1, 0x1.51301420ec228p-8},
    {{'F', "fanin4", 1, 0x1.40523412a69cap+35, 0x1.739f5e69a34bbp+35, 0x0p+0, 0x0p+0, 0x1.fec10e257ec51p-1, 0x1.8feec91145b26p-3, "none"}, false, 0x1.51ce643a5b07p-4, 0x1.7553504e3bd3fp-13},
    {{'F', "fanin4", 2, 0x1.00db7f3062716p+34, 0x1.739f5e69a34bbp+35, 0x0p+0, 0x0p+0, 0x1.998f93024030ap-2, 0x1.40b22bca324d7p-4, "rwqe_steady_miss"}, false, 0x1.51ce643a5b07p-4, 0x1.7553504e3bd3fp-13},
    {{'H', "hetero", 0, 0x1.6cda79c6052f9p+35, 0x1.742859761c0a2p+35, 0x0p+0, 0x0p+0, 0x1.ff7d51ee6580fp-1, 0x1.bd2e12caf7b8ep-7, "fabric_congestion"}, false, 0x1.00415708cd3f8p-1, 0x1.7ffcca3f81b12p-9},
    {{'H', "hetero", 1, 0x1.52d8600b1a708p+34, 0x1.891d076ce1ac8p+34, 0x0p+0, 0x0p+0, 0x1.0e253d5f45cf3p-1, 0x1.9d721e2493e68p-5, "mtt_cache_miss"}, false, 0x0p+0, 0x0p+0},
    {{'H', "hetero", 2, 0x1.9101cfe424edcp+32, 0x1.d13b1a2faed7dp+32, 0x0p+0, 0x0p+0, 0x1.3fb447a6f0172p-3, 0x1.e94b134fe3435p-7, "rwqe_burst_miss"}, false, 0x1.68841a2aa2451p-1, 0x1.3fba7d4a55435p-7},
    {{'H', "fanin4", 0, 0x1.6d36d674d77b7p+34, 0x1.74868f7fee4bdp+34, 0x0p+0, 0x0p+0, 0x1.fffecd82c1547p-1, 0x1.bd9ec51ddc0f2p-6, "fabric_congestion"}, false, 0x1.80004c9f4faaep-1, 0x1.4c7b15f130b35p-6},
    {{'H', "fanin4", 1, 0x1.40c244e29881cp+34, 0x1.742161eae2ee8p+34, 0x0p+0, 0x0p+0, 0x1.ff73bea5b206ap-1, 0x1.8760a461a5252p-3, "none"}, false, 0x1.b54282f3c37p-5, 0x1.eb05783a87de1p-12},
    {{'H', "fanin4", 2, 0x1.9101cfe424edcp+30, 0x1.d13b1a2faed7dp+30, 0x0p+0, 0x0p+0, 0x1.3fb447a6f0172p-4, 0x1.e94b134fe3435p-7, "rwqe_burst_miss"}, false, 0x1.da20deb97a7dep-1, 0x1.603f9e3806c84p-5},
    {{'F', "fanin4", 0, 0x1.15de3e0b5b224p+33, 0x1.1b6e510955555p+33, 0x0p+0, 0x0p+0, 0x1.858b64136c8bp-3, 0x1.5aedbbdfe7779p-8, "cc_throttled"}, true, 0x1.e7a749bec9375p-1, 0x0p+0},
};

TEST(PerfModelGolden, DcqcnThrottledScenariosMatchGoldenRowsBitForBit) {
  EvalScratch scratch;  // shared across rows, as a campaign cell shares one
  int throttled = 0;
  for (const CcGoldenRow& row : kCcGoldenRows) {
    const Subsystem sys =
        with_cc(with_fabric(subsystem(row.row.sys),
                            net::fabric_scenario(row.row.fabric)),
                nic::cc_scenario("dcqcn"));
    const CompiledScenario compiled(sys);
    const Workload w = cc_golden_workload(row);
    Rng rng(7);
    const SimResult r = evaluate(sys, w, rng);
    EXPECT_EQ(cc_row_source(current_cc_row(row, r)), cc_row_source(row));
    // The compiled path twice on the shared scratch: the second call
    // repeats every co-simulation input exactly.
    for (int pass = 0; pass < 2; ++pass) {
      Rng hot_rng(7);
      const SimResult& hot = evaluate(compiled, w, hot_rng, scratch);
      EXPECT_EQ(cc_row_source(current_cc_row(row, hot)), cc_row_source(row))
          << "compiled pass " << pass;
    }
    if (r.cc_suppressed_ratio > 0.0) ++throttled;
  }
  EXPECT_EQ(throttled, 16);
}

// ---- Verdict-only evaluation ----------------------------------------------

// A verdict-only measurement (what an MFS necessity probe asks for) judges
// exactly as the full measurement does, from the same Rng draws: every
// golden row, CC off and DCQCN, seeds 1-64, at the default jitter and at a
// noisy one that makes some probes re-measure, under three pause rules.
// Its pause ratio is the full one bit for bit at or below the allowance,
// and still above the allowance otherwise; both branches must occur.
TEST(PerfModelVerdictOnly, JudgesExactlyAsTheFullMeasurement) {
  std::vector<std::pair<Subsystem, Workload>> rows;
  for (const GoldenRow& row : kGoldenRows) {
    rows.emplace_back(
        with_fabric(subsystem(row.sys), net::fabric_scenario(row.fabric)),
        golden_workload(row.workload));
  }
  for (const CcGoldenRow& row : kCcGoldenRows) {
    rows.emplace_back(with_cc(with_fabric(subsystem(row.row.sys),
                                          net::fabric_scenario(row.row.fabric)),
                              nic::cc_scenario("dcqcn")),
                      cc_golden_workload(row));
  }
  ASSERT_EQ(rows.size(), 46u);
  core::MonitorConfig strict;
  strict.pause.threshold = 0.0;
  strict.pause.fabric_headroom = 0.0;
  core::MonitorConfig loose;
  loose.pause.threshold = 0.2;
  loose.pause.fabric_headroom = 0.5;
  const core::AnomalyMonitor monitors[] = {
      core::AnomalyMonitor{}, core::AnomalyMonitor(strict),
      core::AnomalyMonitor(loose)};

  int decided_early = 0;
  int full_window = 0;
  int remeasured = 0;
  EvalScratch scratch;
  workload::Measurement full;
  workload::Measurement lean;
  for (const double jitter : {0.015, 0.08}) {
    workload::EngineOptions opts;
    opts.sim.jitter = jitter;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const workload::Engine engine(rows[i].first, opts);
      const Workload& w = rows[i].second;
      for (u64 seed = 1; seed <= 64; ++seed) {
        Rng full_rng(seed);
        engine.run(w, full_rng, scratch, full);
        ASSERT_FALSE(full.verdict_only.has_value());
        remeasured += full.remeasure_count > 0 ? 1 : 0;
        for (const core::AnomalyMonitor& monitor : monitors) {
          const PauseRule& rule = monitor.config().pause;
          Rng rng(seed);
          engine.run(w, rng, scratch, lean, &rule);
          const std::string tag = "row " + std::to_string(i) + " jitter " +
                                  std::to_string(jitter) + " seed " +
                                  std::to_string(seed) + " threshold " +
                                  std::to_string(rule.threshold);
          ASSERT_TRUE(lean.verdict_only.has_value()) << tag;
          EXPECT_EQ(monitor.judge(lean).symptom, monitor.judge(full).symptom)
              << tag;
          EXPECT_EQ(rng.state(), full_rng.state()) << tag;
          EXPECT_EQ(lean.cost_seconds, full.cost_seconds) << tag;
          EXPECT_EQ(lean.remeasure_count, full.remeasure_count) << tag;
          EXPECT_EQ(lean.stable, full.stable) << tag;
          EXPECT_EQ(lean.wire_utilization, full.wire_utilization) << tag;
          EXPECT_EQ(lean.pps_utilization, full.pps_utilization) << tag;
          EXPECT_EQ(lean.fabric_pause_ratio, full.fabric_pause_ratio) << tag;
          EXPECT_EQ(lean.dominant, full.dominant) << tag;

          const double allowance = rule.allowance(full.fabric_pause_ratio);
          if (full.pause_duration_ratio <= allowance) {
            EXPECT_EQ(lean.pause_duration_ratio, full.pause_duration_ratio)
                << tag;
            if (full.pause_duration_ratio > 0.0) ++full_window;
          } else {
            EXPECT_GT(lean.pause_duration_ratio, allowance) << tag;
            EXPECT_LE(lean.pause_duration_ratio, full.pause_duration_ratio)
                << tag;
            if (lean.pause_duration_ratio < full.pause_duration_ratio) {
              ++decided_early;
            }
          }

          // What a verdict-only Measurement holds: the perf samples the
          // stability check reads, zero diagnostics, an empty note.
          ASSERT_EQ(lean.samples.size(), full.samples.size()) << tag;
          for (std::size_t k = 0; k < lean.samples.size(); ++k) {
            EXPECT_EQ(lean.samples[k].perf, full.samples[k].perf) << tag;
            EXPECT_EQ(lean.samples[k].diag, CounterSample{}.diag) << tag;
          }
          EXPECT_EQ(lean.average.perf, CounterSample{}.perf) << tag;
          EXPECT_EQ(lean.average.diag, CounterSample{}.diag) << tag;
          EXPECT_TRUE(lean.bottleneck_note.empty()) << tag;
        }
      }
    }
  }
  EXPECT_GT(decided_early, 0);
  EXPECT_GT(full_window, 0);
  EXPECT_GT(remeasured, 0);
}

// The full epoch series is a full evaluation: keep_epochs turns the
// verdict-only shortcut off, so the request changes no output.
TEST(PerfModelVerdictOnly, KeepEpochsTurnsTheShortcutOff) {
  SimConfig cfg;
  cfg.keep_epochs = true;
  const PauseRule strict{0.0, 0.0};
  int stalled = 0;
  for (const GoldenRow& row : kGoldenRows) {
    const Subsystem sys = with_fabric(subsystem(row.sys),
                                      net::fabric_scenario(row.fabric));
    const Workload w = golden_workload(row.workload);
    Rng rng_full(7);
    Rng rng_lean(7);
    const SimResult full = evaluate(sys, w, rng_full, cfg);
    const SimResult lean = evaluate(sys, w, rng_lean, cfg, &strict);
    EXPECT_EQ(row_source(current_row(row, lean)), row_source(row));
    EXPECT_EQ(lean.bottleneck_note, full.bottleneck_note);
    EXPECT_EQ(lean.counters.diag, full.counters.diag);
    EXPECT_EQ(lean.epochs.size(), full.epochs.size());
    if (full.pause_duration_ratio > 0.0) ++stalled;
  }
  EXPECT_GT(stalled, 0);
}

// ---- Fan-in demand aggregation edge cases ---------------------------------

TEST(PerfModelFabric, SingleHotSenderBehindOversubscribedUplink) {
  // fan_in = 1 but a 2:1 uplink: the lone sender gets half its port rate.
  // This is the degenerate fan-in where the aggregation multiplier is 1 and
  // only the uplink constraint bites.
  Subsystem sys = subsystem('F');
  const double r = sys.nicm.line_rate_bps;
  sys.fabric = net::FabricSpec::tor_fanin(1, r, r, 2.0);
  EXPECT_DOUBLE_EQ(sys.fabric.uplink_bps(), r / 2.0);
  EXPECT_DOUBLE_EQ(sys.fabric.receiver_share_bps(), r / 2.0);
  Rng rng(7);
  const SimResult res = evaluate(sys, clean_write(), rng);
  // Half the offered load is paused away, all of it fabric-explained, and
  // the sender saturates its achievable share (healthy).
  EXPECT_NEAR(res.fabric_pause_ratio, 0.5, 0.02);
  EXPECT_GT(res.pause_duration_ratio, 0.45);
  EXPECT_GT(res.wire_utilization, 0.95);
  ASSERT_EQ(res.port_pause_ratio.size(), 2u);
}

TEST(PerfModelFabric, ZeroRatePortDeliversNothingWithoutNanOrUb) {
  // A dead receiver port: degenerate but must stay finite — the solver
  // treats a zero-capacity resource with live demand as infinitely
  // overloaded instead of ignoring it.
  Subsystem sys = subsystem('F');
  const double r = sys.nicm.line_rate_bps;
  sys.fabric = net::FabricSpec::heterogeneous_pair(r, 0.0);
  EXPECT_DOUBLE_EQ(sys.fabric.receiver_share_bps(), 0.0);
  Rng rng(7);
  const SimResult res = evaluate(sys, clean_write(), rng);
  EXPECT_TRUE(std::isfinite(res.wire_utilization));
  EXPECT_TRUE(std::isfinite(res.pps_utilization));
  EXPECT_TRUE(std::isfinite(res.rx_goodput_bps));
  EXPECT_LT(res.rx_goodput_bps, 0.01 * r);
  // Everything the sender offers is fabric-explained congestion.
  EXPECT_GT(res.fabric_pause_ratio, 0.95);
}

TEST(PerfModelFabric, UnityOversubscriptionLeavesUplinkUnbinding) {
  // fan_in = 4 with a 1:1 uplink: the receiver port itself, not the ToR
  // uplink, is what divides into per-sender shares.
  Subsystem sys = subsystem('F');
  const double r = sys.nicm.line_rate_bps;
  sys.fabric = net::FabricSpec::tor_fanin(4, r, r, 1.0);
  EXPECT_DOUBLE_EQ(sys.fabric.uplink_bps(), 4.0 * r);
  EXPECT_DOUBLE_EQ(sys.fabric.receiver_share_bps(), r / 4.0);
  Rng rng(7);
  const SimResult res = evaluate(sys, clean_write(), rng);
  EXPECT_NEAR(res.fabric_pause_ratio, 0.75, 0.02);
  EXPECT_GT(res.wire_utilization, 0.95);  // saturates the quarter share
  ASSERT_EQ(res.port_pause_ratio.size(), 5u);

  // The fully degenerate fan-in — one sender, matched rates, 1:1 uplink —
  // IS the paper's trivial pair, and must reproduce the seed bit-for-bit.
  sys.fabric = net::FabricSpec::tor_fanin(1, r, r, 1.0);
  EXPECT_TRUE(sys.fabric.trivial_pair(r));
  EXPECT_DOUBLE_EQ(sys.fabric.receiver_share_bps(), r);
  Rng rng2(7);
  const SimResult degenerate = evaluate(sys, clean_write(), rng2);
  Rng rng3(7);
  const SimResult base = evaluate(subsystem('F'), clean_write(), rng3);
  EXPECT_EQ(degenerate.rx_goodput_bps, base.rx_goodput_bps);
  EXPECT_EQ(degenerate.pause_duration_ratio, base.pause_duration_ratio);
  EXPECT_EQ(degenerate.fabric_pause_ratio, 0.0);
}

// ---- Congestion control ---------------------------------------------------

TEST(PerfModelCc, WellTunedDcqcnAbsorbsFanInCongestionWithoutPause) {
  const Subsystem sys =
      with_cc(with_fabric(subsystem('F'), net::fabric_scenario("fanin4")),
              nic::cc_scenario("dcqcn"));
  Workload w = clean_write();
  w.dcqcn = true;
  Rng rng(7);
  const SimResult r = evaluate(sys, w, rng);
  // ECN feedback rate-limits the senders to their fair share: the PFC storm
  // of the CC-off fanin4 run disappears, the suppressed demand is recorded,
  // and the flow still saturates its achievable share (healthy).
  EXPECT_LT(r.pause_duration_ratio, 0.01);
  EXPECT_GT(r.cc_suppressed_ratio, 0.5);
  EXPECT_GT(r.wire_utilization, 0.95);
  EXPECT_GT(r.cc_mark_probability, 0.0);
}

TEST(PerfModelCc, MistunedEcnThresholdsLeaveFabricAttributedPfcStorm) {
  // The acceptance scenario: DCQCN armed on fanin4, but the switch marking
  // thresholds sit beyond the PFC XOFF point.  ECN never reacts, the PFC
  // storm persists, and the model attributes it to the fabric — the
  // monitor sees heavy pause but must not call the subsystem anomalous.
  const Subsystem sys =
      with_cc(with_fabric(subsystem('F'), net::fabric_scenario("fanin4")),
              nic::cc_scenario("mistuned"));
  Workload w = clean_write();
  w.dcqcn = true;
  Rng rng(7);
  const SimResult r = evaluate(sys, w, rng);
  EXPECT_GT(r.pause_duration_ratio, 0.5);  // monitor-visible pause
  EXPECT_DOUBLE_EQ(r.cc_suppressed_ratio, 0.0);
  // ...all of it fabric-explained (within the monitor's headroom).
  EXPECT_GT(r.fabric_pause_ratio, 0.99 * r.pause_duration_ratio - 0.01);
  EXPECT_EQ(r.dominant, Bottleneck::kFabricCongestion);
}

TEST(PerfModelCc, MistunedReactionPointManufacturesLowThroughputAnomaly) {
  // Noisy Neighbor-style CC misconfiguration: a crippled additive-increase
  // step with a maximal EWMA gain leaves most of the path idle.
  const Subsystem sys =
      with_cc(with_fabric(subsystem('F'), net::fabric_scenario("fanin4")),
              nic::cc_scenario("dcqcn"));
  Workload w = clean_write();
  w.dcqcn = true;
  w.dcqcn_rate_ai_mbps = 1.0;
  w.dcqcn_g = 1.0;
  Rng rng(7);
  const SimResult r = evaluate(sys, w, rng);
  EXPECT_LT(r.wire_utilization, 0.8);
  EXPECT_LT(r.pps_utilization, 0.8);
  EXPECT_LT(r.pause_duration_ratio, 0.001);
  EXPECT_EQ(r.dominant, Bottleneck::kCcThrottled);
  EXPECT_GT(r.cc_suppressed_ratio, 0.9);

  // Healthier per-QP tuning on the same path restores the fair share.
  Workload good = w;
  good.dcqcn_rate_ai_mbps = 1000.0;
  good.dcqcn_g = 1.0 / 256.0;
  Rng rng2(7);
  const SimResult ok = evaluate(sys, good, rng2);
  EXPECT_GT(ok.wire_utilization, 0.9);
}

}  // namespace
}  // namespace collie::sim
