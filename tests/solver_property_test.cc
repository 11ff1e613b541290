// Cross-cutting properties of the performance model's resource solver,
// checked over randomized workloads and all eight subsystems:
//   * conservation — delivered goodput never exceeds the wire/line budget;
//   * monotonicity — growing a working set never *raises* throughput;
//   * generation consistency — the 100G CX-6 subsystem (D) is a behavioural
//     subset of the stressed 200G one (F), as the paper reports;
//   * the one-pass steady solve equals a two-pass reference bit for bit.
#include <gtest/gtest.h>

#include <bit>

#include "catalog/anomalies.h"
#include "core/space.h"
#include "net/fabric.h"
#include "nic/dcqcn.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"

namespace collie::sim {
namespace {

class SolverPropertyTest : public ::testing::TestWithParam<char> {};

TEST_P(SolverPropertyTest, DeliveredNeverExceedsLineRate) {
  const Subsystem& sys = subsystem(GetParam());
  Rng rng(static_cast<u64>(GetParam()));
  for (int i = 0; i < 30; ++i) {
    Workload w;
    w.qp_type = QpType::kRC;
    w.opcode = rng.bernoulli(0.5) ? Opcode::kWrite : Opcode::kSend;
    w.num_qps = static_cast<int>(rng.log_uniform_int(1, 4000));
    w.wqe_batch = 1 << rng.uniform_int(0, 6);
    w.send_wq_depth = std::max(w.wqe_batch, 128);
    w.recv_wq_depth = 16 << rng.uniform_int(0, 6);
    w.mr_size = 1 * MiB;
    w.mtu = 1024u << rng.uniform_int(0, 2);
    w.pattern.assign(4, 1ull << rng.uniform_int(8, 18));
    w.bidirectional = rng.bernoulli(0.5);
    ASSERT_TRUE(w.valid());
    const SimResult r = evaluate(sys, w, rng);
    // Goodput can never exceed the line rate (and leaves header room).
    EXPECT_LE(r.rx_goodput_bps, sys.nicm.line_rate_bps * 1.001)
        << w.describe();
    EXPECT_LE(r.tx_goodput_bps, sys.nicm.line_rate_bps * 1.001);
    // Wire utilization accounts for overhead, so goodput < wire cap.
    EXPECT_LE(r.tx_wire_bps, sys.nicm.line_rate_bps * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubsystems, SolverPropertyTest,
                         ::testing::Values('A', 'B', 'C', 'D', 'E', 'F',
                                           'G', 'H'));

TEST(SolverProperty, ThroughputMonotoneInQpcPressure) {
  // Adding connections to a small-message workload never increases
  // delivered throughput (the ICM working set only grows).
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.wqe_batch = 1;
  w.send_wq_depth = 16;
  w.recv_wq_depth = 16;
  w.mr_size = 64 * KiB;
  w.mtu = 1024;
  w.pattern = {512};
  double prev = 1e18;
  for (int qps : {8, 64, 256, 480, 1024, 4096}) {
    w.num_qps = qps;
    Rng rng(3);
    const SimResult r = evaluate(subsystem('F'), w, rng);
    EXPECT_LE(r.rx_goodput_bps, prev * 1.05) << qps;
    prev = r.rx_goodput_bps;
  }
}

TEST(SolverProperty, ThroughputMonotoneInMttPressure) {
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = 24;
  w.wqe_batch = 1;
  w.mr_size = 64 * KiB;
  w.mtu = 1024;
  w.pattern = {512};
  double prev = 1e18;
  for (int mrs : {1, 16, 128, 512, 1024}) {
    w.mrs_per_qp = mrs;
    Rng rng(3);
    const SimResult r = evaluate(subsystem('F'), w, rng);
    EXPECT_LE(r.rx_goodput_bps, prev * 1.05) << mrs;
    prev = r.rx_goodput_bps;
  }
}

TEST(SolverProperty, HundredGigCx6IsSubsetOfTwoHundred) {
  // Every CX-6 concrete trigger that stays clean on F must stay clean on D
  // (the 100G part has strictly more headroom); the converse need not hold
  // — the paper's ML workload regressed only at 200G.
  int f_anomalous = 0;
  int d_anomalous = 0;
  for (const auto& a : catalog::all_anomalies()) {
    if (a.chip != "CX-6") continue;
    if (a.concrete.local_mem.kind == topo::MemKind::kGpu ||
        a.concrete.remote_mem.kind == topo::MemKind::kGpu) {
      continue;  // D has no GPUs; placement invalid there
    }
    Workload w = a.concrete;
    // D is a 2-socket host without quirked cross-socket paths.
    Rng rng(9);
    const SimResult rf = evaluate(subsystem('F'), w, rng);
    const SimResult rd = evaluate(subsystem('D'), w, rng);
    auto anomalous = [](const SimResult& r) {
      return r.pause_duration_ratio > 0.001 ||
             (r.wire_utilization < 0.8 && r.pps_utilization < 0.8);
    };
    if (anomalous(rf)) ++f_anomalous;
    if (anomalous(rd)) ++d_anomalous;
  }
  EXPECT_GE(f_anomalous, d_anomalous);
  EXPECT_GT(f_anomalous, 0);
}

TEST(SolverProperty, BidirectionalNeverBeatsSumOfUnidirectional) {
  // Per-direction goodput under bidirectional load cannot exceed the
  // unidirectional goodput of the same workload.
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    Workload w;
    w.qp_type = QpType::kRC;
    w.opcode = Opcode::kWrite;
    w.num_qps = static_cast<int>(rng.log_uniform_int(1, 512));
    w.wqe_batch = 1 << rng.uniform_int(0, 5);
    w.send_wq_depth = std::max(w.wqe_batch, 128);
    w.mr_size = 1 * MiB;
    w.mtu = 4096;
    w.pattern = {1ull << rng.uniform_int(10, 18)};
    Workload uni = w;
    uni.bidirectional = false;
    Workload bi = w;
    bi.bidirectional = true;
    Rng r1(42);
    Rng r2(42);
    const double g_uni =
        evaluate(subsystem('F'), uni, r1).tx_goodput_bps;
    const double g_bi = evaluate(subsystem('F'), bi, r2).tx_goodput_bps;
    EXPECT_LE(g_bi, g_uni * 1.01) << w.describe();
  }
}

TEST(SolverProperty, LowerMtuNeverHelpsOnCx6) {
  // On the CX-6 subsystems, shrinking the MTU never improves a fixed
  // workload (the P2100G's #14 inversion is the quirky exception, on H).
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = 8;
  w.wqe_batch = 8;
  w.mr_size = 1 * MiB;
  w.pattern = {64 * KiB};
  double prev = 0.0;
  for (u32 mtu : {256u, 512u, 1024u, 2048u, 4096u}) {
    w.mtu = mtu;
    Rng rng(13);
    const double g = evaluate(subsystem('F'), w, rng).rx_goodput_bps;
    EXPECT_GE(g, prev * 0.99) << mtu;
    prev = g;
  }
}

// ---- The one-pass steady solve ---------------------------------------------

// Test-local reference: one solver pass over the exported linear system,
// recomputing every constraint's demand at every step (no demand cache).
int reference_pass(const SteadySolve& sys, bool include_rx_stall,
                   std::array<double, 4>& rate) {
  const std::size_t nf = sys.start_rate.size();
  for (std::size_t i = 0; i < nf; ++i) rate[i] = sys.start_rate[i];
  int binding = -1;
  for (int iter = 0; iter < 200; ++iter) {
    double worst = 1.0 + 1e-9;
    int worst_idx = -1;
    for (std::size_t ri = 0; ri < sys.constraints.size(); ++ri) {
      const SteadySolve::Constraint& c = sys.constraints[ri];
      if (!include_rx_stall && c.rx_stall) continue;
      double d = 0.0;
      for (std::size_t i = 0; i < nf; ++i) d += c.coeff[i] * rate[i];
      const double u =
          c.capacity <= 0.0 ? (d > 0.0 ? 1e18 : 0.0) : d / c.capacity;
      if (u > worst) {
        worst = u;
        worst_idx = static_cast<int>(ri);
      }
    }
    if (worst_idx < 0) break;
    binding = worst_idx;
    const SteadySolve::Constraint& c =
        sys.constraints[static_cast<std::size_t>(worst_idx)];
    for (std::size_t i = 0; i < nf; ++i) {
      if (c.coeff[i] > 0.0) rate[i] /= worst;
    }
  }
  return binding;
}

// Re-solves `s`'s system with the reference passes and compares offered
// rates, admitted rates and the binding resource bit for bit.
void expect_reference_solve(const SteadySolve& s, const std::string& tag) {
  std::array<double, 4> rate{};
  std::array<double, 4> offered{};
  const int binding = reference_pass(s, true, rate);
  reference_pass(s, false, offered);
  EXPECT_EQ(s.binding, binding) << tag;
  for (std::size_t f = 0; f < s.start_rate.size(); ++f) {
    EXPECT_EQ(std::bit_cast<u64>(s.rate[f]), std::bit_cast<u64>(rate[f]))
        << tag;
    EXPECT_EQ(std::bit_cast<u64>(s.offered_rate[f]),
              std::bit_cast<u64>(offered[f]))
        << tag;
  }
}

// The model runs the sender-side pass only when the full pass scaled at an
// rx_stall resource, and otherwise reuses the full pass's rates as the
// offered ones; the sender-side pass starts from the full pass's start
// rates, demands and first scan; and a pass stops right after a step that
// scaled every flow alike.  On random workloads over every subsystem x
// fabric x CC scenario, that must equal running both passes from scratch
// to the end (reference_pass recomputes every demand and never stops
// early): offered rates, admitted rates and the binding resource, bit for
// bit.  Every shortcut must fire.
TEST(SolverProperty, OnePassSolveEqualsTheTwoPassReference) {
  int one_pass = 0;
  int two_pass = 0;
  int uniform_stops = 0;
  int two_pass_uniform_stops = 0;
  u64 seed = 1;
  for (const char id : all_subsystem_ids()) {
    for (const std::string& fabric : net::fabric_scenario_names()) {
      for (const std::string& cc : nic::cc_scenario_names()) {
        const Subsystem sys = with_cc(
            with_fabric(subsystem(id), net::fabric_scenario(fabric)),
            nic::cc_scenario(cc));
        const CompiledScenario compiled(sys);
        const core::SearchSpace space(sys);
        Rng rng(seed++);
        for (int i = 0; i < 24; ++i) {
          const Workload w = space.random_point(rng);
          const SteadySolve s = steady_solve(compiled, w);
          expect_reference_solve(s, std::string(1, id) + "/" + fabric +
                                        "/" + cc + " " + w.describe());
          ++(s.sender_pass_ran ? two_pass : one_pass);
          uniform_stops += s.uniform_stops;
          if (s.sender_pass_ran) two_pass_uniform_stops += s.uniform_stops;
        }
      }
    }
  }
  EXPECT_GT(one_pass, 0);
  EXPECT_GT(two_pass, 0);
  EXPECT_GT(uniform_stops, 0);
  EXPECT_GT(two_pass_uniform_stops, 0);
}

// A dead receiver port (capacity 0) reads 1e18 whatever the rates are, so
// the uniform-scaling stop is disarmed and both passes run the full loop,
// still equal to the reference.
TEST(SolverProperty, DeadResourceKeepsTheFullLoop) {
  Subsystem sys = subsystem('F');
  sys.fabric = net::FabricSpec::heterogeneous_pair(sys.nicm.line_rate_bps, 0.0);
  const CompiledScenario compiled(sys);
  const core::SearchSpace space(sys);
  Rng rng(41);
  for (int i = 0; i < 64; ++i) {
    const Workload w = space.random_point(rng);
    const SteadySolve s = steady_solve(compiled, w);
    EXPECT_FALSE(s.uniform_stop_armed) << w.describe();
    EXPECT_EQ(s.uniform_stops, 0) << w.describe();
    expect_reference_solve(s, "dead port " + w.describe());
  }
  // The live pair arms it.
  const CompiledScenario live(subsystem('F'));
  EXPECT_TRUE(steady_solve(live, space.random_point(rng)).uniform_stop_armed);
}

}  // namespace
}  // namespace collie::sim
