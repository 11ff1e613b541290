// Property tests for the DCQCN rate limiter and the ECN co-simulation:
// randomized parameter/threshold sweeps pinning the invariants the
// performance model's CC fixed point relies on, and fuzzed and edge-case
// inputs holding the co-simulation kernel to the limiter-driven reference
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nic/dcqcn.h"

namespace collie::nic {
namespace {

DcqcnParams random_params(Rng& rng) {
  DcqcnParams p;
  p.enabled = true;
  const std::vector<double> gs{0.001, 1.0 / 256.0, 1.0 / 64.0, 0.25, 1.0};
  p.g = gs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<i64>(gs.size()) - 1))];
  p.rate_ai_bps = mbps(rng.uniform(1.0, 5000.0));
  p.fast_recovery_rounds = static_cast<int>(rng.uniform_int(1, 8));
  p.min_rate_bps = mbps(rng.uniform(1.0, 100.0));
  return p;
}

net::EcnParams random_ecn(Rng& rng) {
  net::EcnParams ecn;
  ecn.enabled = true;
  ecn.queue_cap_bytes = 2.0 * MiB;
  ecn.xoff_bytes = 0.7 * ecn.queue_cap_bytes;
  const double kmin_frac = rng.uniform(0.01, 0.6);
  ecn.kmin_bytes = kmin_frac * ecn.queue_cap_bytes;
  ecn.kmax_bytes =
      std::min(ecn.xoff_bytes,
               ecn.kmin_bytes + rng.uniform(0.05, 0.3) * ecn.queue_cap_bytes);
  ecn.pmax = rng.uniform(0.01, 1.0);
  return ecn;
}

class DcqcnProperty : public ::testing::TestWithParam<u64> {};

// Invariants under an arbitrary CNP arrival process: alpha stays a
// probability, the rate stays within [min_rate, line rate].
TEST_P(DcqcnProperty, AlphaAndRateStayBounded) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const DcqcnParams p = random_params(rng);
    const double line = gbps(rng.uniform(10.0, 400.0));
    DcqcnRateLimiter lim(p, line, rng.uniform(0.0, 2.0) * line);
    for (int i = 0; i < 2000; ++i) {
      // Bursty on/off CNP arrivals at up to 4 CNPs per update period.
      const double cnp_rate =
          rng.bernoulli(0.5) ? rng.uniform(0.0, 4.0 / p.update_interval_s)
                             : 0.0;
      lim.step(rng.uniform(0.0, 5.0 * p.update_interval_s), cnp_rate);
      ASSERT_GE(lim.alpha(), 0.0);
      ASSERT_LE(lim.alpha(), 1.0);
      ASSERT_GE(lim.rate_bps(), lim.params().min_rate_bps - 1.0);
      ASSERT_LE(lim.rate_bps(), line + 1.0);
    }
  }
}

// Once CNPs stop, recovery is monotone: the rate never decreases again, and
// alpha decays toward zero.
TEST_P(DcqcnProperty, RecoveryAfterCnpsStopIsMonotone) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 20; ++trial) {
    const DcqcnParams p = random_params(rng);
    const double line = gbps(rng.uniform(10.0, 400.0));
    DcqcnRateLimiter lim(p, line, line);
    // Congest hard for a while.
    for (int i = 0; i < 500; ++i) {
      lim.step(p.update_interval_s, 2.0 / p.update_interval_s);
    }
    const double cut_rate = lim.rate_bps();
    EXPECT_LT(cut_rate, line);
    // Then silence: the rate must climb monotonically back.
    double prev = lim.rate_bps();
    double prev_alpha = lim.alpha();
    for (int i = 0; i < 5000; ++i) {
      lim.step(p.update_interval_s, 0.0);
      ASSERT_GE(lim.rate_bps(), prev - 1e-6) << "trial " << trial;
      ASSERT_LE(lim.alpha(), prev_alpha + 1e-12);
      prev = lim.rate_bps();
      prev_alpha = lim.alpha();
    }
    EXPECT_GT(lim.rate_bps(), cut_rate);
    EXPECT_LT(lim.alpha(), 0.05);
  }
}

// The steady-state co-simulation under randomized quirk/threshold sweeps:
// the converged rate is positive, never exceeds the offer, and a congested
// path with markable thresholds is actually throttled.
TEST_P(DcqcnProperty, SteadyStateConvergesWithinBounds) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 12; ++trial) {
    const DcqcnParams p = random_params(rng);
    const net::EcnParams ecn = random_ecn(rng);
    const double line = gbps(200);
    const double capacity = gbps(rng.uniform(5.0, 100.0));
    const double offered = capacity * rng.uniform(1.05, 4.0);
    const CcSteadyState ss = solve_cc_steady_state(
        offered, capacity, line, rng.uniform(1.0, 64.0), ecn, p,
        rng.uniform(256.0, 4178.0));
    ASSERT_GE(ss.rate_bps, p.min_rate_bps * 0.5);
    ASSERT_LE(ss.rate_bps, offered + 1.0);
    EXPECT_TRUE(ss.throttled);
    EXPECT_GE(ss.mark_probability, 0.0);
    EXPECT_LE(ss.mark_probability, 1.0);
    EXPECT_LE(ss.queue_bytes, ecn.occupancy_ceiling_bytes() + 1.0);
  }
}

// Pass-through regimes: no congestion, disarmed CC, or marking thresholds
// parked beyond the PFC ceiling (the mistuned configuration) all leave the
// offer untouched.
TEST_P(DcqcnProperty, PassThroughRegimes) {
  Rng rng(GetParam() + 300);
  const DcqcnParams p = random_params(rng);
  net::EcnParams ecn = random_ecn(rng);
  const double line = gbps(200);

  // Uncongested path.
  CcSteadyState ss =
      solve_cc_steady_state(gbps(40), gbps(50), line, 8, ecn, p, 4096);
  EXPECT_FALSE(ss.throttled);
  EXPECT_DOUBLE_EQ(ss.rate_bps, gbps(40));

  // Disarmed reaction point.
  DcqcnParams off = p;
  off.enabled = false;
  ss = solve_cc_steady_state(gbps(200), gbps(50), line, 8, ecn, off, 4096);
  EXPECT_FALSE(ss.throttled);
  EXPECT_DOUBLE_EQ(ss.rate_bps, gbps(200));

  // Mistuned thresholds: Kmin at/beyond the PFC XOFF ceiling never marks.
  net::EcnParams mistuned = ecn;
  mistuned.kmin_bytes = mistuned.xoff_bytes;
  mistuned.kmax_bytes = mistuned.queue_cap_bytes;
  EXPECT_FALSE(mistuned.can_mark());
  ss = solve_cc_steady_state(gbps(200), gbps(50), line, 8, mistuned, p, 4096);
  EXPECT_FALSE(ss.throttled);
  EXPECT_DOUBLE_EQ(ss.rate_bps, gbps(200));
}

// Tuning gradient: a crippled reaction point (minimal additive increase,
// maximal EWMA gain — every cut is a halving, recovery crawls) converges
// far below a healthy one on the same congested path.  This is the slope
// the CC-parameter search climbs.  (Note the property is deliberately
// about *stark* mistuning: within the healthy band the limit cycle is not
// monotone in R_AI — a hotter increase also provokes more marking.)
TEST_P(DcqcnProperty, CrippledTuningUndershootsHealthyTuning) {
  Rng rng(GetParam() + 400);
  for (int trial = 0; trial < 6; ++trial) {
    DcqcnParams p = random_params(rng);
    const net::EcnParams ecn = random_ecn(rng);
    const double capacity = gbps(rng.uniform(10.0, 50.0));
    const double offered = capacity * rng.uniform(1.5, 3.0);
    p.rate_ai_bps = mbps(2000);
    p.g = 1.0 / 256.0;
    const CcSteadyState healthy = solve_cc_steady_state(
        offered, capacity, gbps(200), 16, ecn, p, 4096);
    p.rate_ai_bps = mbps(1);
    p.g = 1.0;
    const CcSteadyState crippled = solve_cc_steady_state(
        offered, capacity, gbps(200), 16, ecn, p, 4096);
    // Across arbitrary thresholds the crippled limiter is never materially
    // better than the healthy one.  Fast recovery can mask mild overload
    // and limit-cycle averaging wiggles by ~10%, so the universal bound is
    // loose — the canonical heavy-overload case below carries the sharp
    // claim.
    EXPECT_LE(crippled.rate_bps, healthy.rate_bps * 1.15)
        << "trial " << trial;
    EXPECT_GT(healthy.rate_bps, 0.5 * capacity) << "trial " << trial;
  }

  // Canonical heavy-overload point (the fanin4 shape: ~4x oversubscribed,
  // catalog "dcqcn" thresholds): here the undershoot is stark — this is
  // the anomaly surface the CC-parameter search discovers.
  const net::EcnParams ecn = cc_scenario("dcqcn").materialize_ecn(2.0 * MiB);
  DcqcnParams p;
  p.enabled = true;
  p.rate_ai_bps = mbps(1000);
  p.g = 1.0 / 256.0;
  const CcSteadyState healthy =
      solve_cc_steady_state(gbps(190), gbps(50), gbps(200), 8, ecn, p, 4178);
  p.rate_ai_bps = mbps(1);
  p.g = 1.0;
  const CcSteadyState crippled =
      solve_cc_steady_state(gbps(190), gbps(50), gbps(200), 8, ecn, p, 4178);
  EXPECT_GT(healthy.rate_bps, gbps(42));   // within ~15% of capacity
  EXPECT_LT(crippled.rate_bps, gbps(25));  // leaves half the path idle
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcqcnProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- The solver kernel vs the limiter-driven reference ---------------------

// The co-simulation as it was first written: every step recomputes the
// admitted rate and packet rate, asks the fabric API for the CNP rate, and
// advances a DcqcnRateLimiter through step().  solve_cc_steady_state
// computes the same steps (period clock precomputed, rate-derived values
// cached between update periods, empty-queue and below-Kmin work skipped);
// this copy is the oracle it must reproduce bit for bit.
CcSteadyState reference_cc_steady_state(double offered_bps,
                                        double capacity_bps,
                                        double line_rate_bps, double flows,
                                        const net::EcnParams& ecn,
                                        const DcqcnParams& params,
                                        double pkt_bytes) {
  CcSteadyState out;
  out.rate_bps = std::max(offered_bps, 0.0);
  if (offered_bps <= 0.0 || !params.enabled || !ecn.can_mark() ||
      offered_bps <= capacity_bps * 1.001) {
    return out;
  }
  pkt_bytes = std::max(pkt_bytes, 64.0);
  DcqcnRateLimiter limiter(params, line_rate_bps, offered_bps);
  const double dt = 10e-6;
  const int total_steps = 24000;
  const int warmup_steps = total_steps / 2;
  double queue = 0.0;
  double sum_rate = 0.0;
  double sum_mark = 0.0;
  double sum_queue = 0.0;
  int samples = 0;
  const double queue_ceiling = ecn.occupancy_ceiling_bytes();
  for (int i = 0; i < total_steps; ++i) {
    const double admitted = std::min(limiter.rate_bps(), offered_bps);
    queue += (admitted - capacity_bps) / 8.0 * dt;
    queue = std::clamp(queue, 0.0, queue_ceiling);
    const double pps = admitted / (8.0 * pkt_bytes);
    const double cnp_rate =
        ecn.cnps_per_second(queue, pps, flows, params.cnp_interval_s);
    limiter.step(dt, cnp_rate);
    if (i >= warmup_steps) {
      sum_rate += std::min(limiter.rate_bps(), offered_bps);
      sum_mark += ecn.mark_probability(queue);
      sum_queue += queue;
      ++samples;
    }
  }
  out.rate_bps = samples > 0 ? sum_rate / samples : offered_bps;
  out.rate_bps = std::min(out.rate_bps, offered_bps);
  out.alpha = limiter.alpha();
  out.mark_probability = samples > 0 ? sum_mark / samples : 0.0;
  out.queue_bytes = samples > 0 ? sum_queue / samples : 0.0;
  out.throttled = out.rate_bps < offered_bps * 0.999;
  return out;
}

template <typename T>
T pick(Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<i64>(options.size()) - 1))];
}

// One fuzzed solver input.  Most draws sit in the campaign's range (the
// catalog thresholds, 8-4096 QPs' worth of flows, 1-2x oversubscription);
// the rest cover the edges the kernel must not special-case: no CNP
// pacing, update periods shorter than, equal to and longer than the step,
// g outside [1e-6, 1], no fast recovery, runt packets, fewer than one flow,
// and marking curves that are mistuned, inverted or disarmed.
struct SolverInput {
  double offered = 0.0;
  double capacity = 0.0;
  double line = 0.0;
  double flows = 0.0;
  net::EcnParams ecn;
  DcqcnParams prm;
  double pkt_bytes = 0.0;
};

SolverInput random_solver_input(Rng& rng) {
  SolverInput in;
  in.line = gbps(pick<double>(rng, {25, 100, 200, 400}));
  in.capacity = in.line * rng.uniform(0.02, 1.0);
  in.offered = rng.bernoulli(0.9) ? in.capacity * rng.uniform(0.9, 6.0)
                                  : pick<double>(rng, {0.0, -1.0, in.capacity});
  in.flows = rng.bernoulli(0.85) ? std::floor(rng.uniform(1.0, 4096.0))
                                 : pick<double>(rng, {0.0, 0.25, 0.999, -3.0});
  in.pkt_bytes = rng.bernoulli(0.85)
                     ? rng.uniform(64.0, 4178.0)
                     : pick<double>(rng, {0.0, 1.0, 40.0, 63.9});

  const double cap = pick<double>(rng, {512.0 * KiB, 2.0 * MiB, 16.0 * MiB});
  in.ecn.enabled = rng.bernoulli(0.97);
  in.ecn.queue_cap_bytes = cap;
  in.ecn.xoff_bytes =
      rng.bernoulli(0.9) ? 0.7 * cap : rng.uniform(0.0, 1.2) * cap;
  switch (rng.uniform_int(0, 5)) {
    case 0:  // mistuned: Kmin at/beyond the PFC ceiling, never marks
      in.ecn.kmin_bytes = cap * rng.uniform(0.7, 1.0);
      in.ecn.kmax_bytes = cap;
      break;
    case 1:  // inverted curve: Kmax below Kmin (span clamps to one byte)
      in.ecn.kmin_bytes = cap * rng.uniform(0.05, 0.4);
      in.ecn.kmax_bytes = in.ecn.kmin_bytes * rng.uniform(0.0, 1.0);
      break;
    default:  // the catalog shape around its 0.05/0.20 fractions
      in.ecn.kmin_bytes = cap * rng.uniform(0.0, 0.5);
      in.ecn.kmax_bytes = in.ecn.kmin_bytes + cap * rng.uniform(0.0, 0.5);
      break;
  }
  in.ecn.pmax = rng.bernoulli(0.95) ? rng.uniform(0.001, 1.0)
                                    : pick<double>(rng, {0.0, -0.5, 1.5});

  in.prm.enabled = rng.bernoulli(0.97);
  in.prm.g = rng.bernoulli(0.8)
                 ? pick<double>(rng, {1.0 / 256.0, 1.0 / 64.0, 0.25, 1.0})
                 : pick<double>(rng, {0.0, -0.1, 1e-9, 1.5, 4.0});
  in.prm.rate_ai_bps = rng.bernoulli(0.9) ? mbps(rng.uniform(1.0, 5000.0))
                                          : pick<double>(rng, {0.0, -1e6});
  in.prm.update_interval_s =
      rng.bernoulli(0.7)
          ? 55e-6
          : pick<double>(rng, {3e-6, 10e-6, 17.5e-6, 40e-6, 100e-6, 1e-3});
  in.prm.cnp_interval_s = rng.bernoulli(0.8)
                              ? pick<double>(rng, {50e-6, 4e-6, 1e-3})
                              : pick<double>(rng, {0.0, -1e-6});
  in.prm.fast_recovery_rounds =
      static_cast<int>(rng.bernoulli(0.8) ? rng.uniform_int(1, 8)
                                          : rng.uniform_int(-2, 0));
  in.prm.min_rate_bps = rng.bernoulli(0.9) ? mbps(rng.uniform(1.0, 100.0))
                                           : in.line * rng.uniform(0.5, 2.0);
  return in;
}

bool same_bits(double a, double b) {
  return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

// Solves `in` both ways.  `mismatch` is empty when every output matches
// bit for bit, else it shows both results side by side.
struct Comparison {
  CcSteadyState ref;
  std::string mismatch;
};

Comparison compare_to_reference(const SolverInput& in) {
  const CcSteadyState ref = reference_cc_steady_state(
      in.offered, in.capacity, in.line, in.flows, in.ecn, in.prm,
      in.pkt_bytes);
  const CcSteadyState got = solve_cc_steady_state(
      in.offered, in.capacity, in.line, in.flows, in.ecn, in.prm,
      in.pkt_bytes);
  if (same_bits(ref.rate_bps, got.rate_bps) &&
      same_bits(ref.alpha, got.alpha) &&
      same_bits(ref.mark_probability, got.mark_probability) &&
      same_bits(ref.queue_bytes, got.queue_bytes) &&
      ref.throttled == got.throttled) {
    return {ref, ""};
  }
  std::ostringstream os;
  os << std::hexfloat << "rate " << ref.rate_bps << " vs " << got.rate_bps
     << ", alpha " << ref.alpha << " vs " << got.alpha << ", mark "
     << ref.mark_probability << " vs " << got.mark_probability << ", queue "
     << ref.queue_bytes << " vs " << got.queue_bytes;
  return {ref, os.str()};
}

TEST(DcqcnProperty, FusedLoopMatchesReferenceBitForBit) {
  Rng rng(0xdc9c);
  constexpr int kInputs = 4096;
  int mismatches = 0;
  int throttled = 0;
  for (int n = 0; n < kInputs; ++n) {
    const Comparison c = compare_to_reference(random_solver_input(rng));
    if (!c.mismatch.empty()) {
      ++mismatches;
      ADD_FAILURE() << "input " << n << ": " << c.mismatch;
      if (mismatches >= 5) break;
    }
    if (c.ref.throttled) ++throttled;
  }
  EXPECT_EQ(mismatches, 0);
  // The sweep is not vacuous: most inputs co-simulate and throttle.
  EXPECT_GT(throttled, kInputs / 2);
}

// Inputs the fuzz draws rarely or never, each on the boundary of one of
// the solver's shortcuts: a curve that marks an empty queue (which must
// disable the empty-queue skip), PFC ceilings at both ends, update
// intervals that end exactly at a step, never cycle, or end several
// times in one step, offers just past the congestion test, and a limiter
// that cuts below the drain and leaves the queue empty.
TEST(DcqcnProperty, FusedLoopMatchesReferenceOnEdgeInputs) {
  SolverInput base;  // the fanin4 shape under the catalog thresholds
  base.line = gbps(200);
  base.capacity = gbps(50);
  base.offered = gbps(190);
  base.flows = 8;
  base.pkt_bytes = 4178;
  base.ecn = cc_scenario("dcqcn").materialize_ecn(2.0 * MiB);
  base.prm.enabled = true;
  const double cap = base.ecn.queue_cap_bytes;

  std::vector<std::pair<std::string, SolverInput>> cases;
  const auto add = [&](std::string name, auto edit) {
    SolverInput in = base;
    edit(in);
    cases.emplace_back(std::move(name), in);
  };
  add("catalog dcqcn", [](SolverInput&) {});
  add("Kmin = Kmax = 0 marks an empty queue", [](SolverInput& in) {
    in.ecn.kmin_bytes = 0.0;
    in.ecn.kmax_bytes = 0.0;
  });
  add("Kmin = 0 < Kmax", [&](SolverInput& in) {
    in.ecn.kmin_bytes = 0.0;
    in.ecn.kmax_bytes = 0.2 * cap;
  });
  add("xoff = 0", [](SolverInput& in) { in.ecn.xoff_bytes = 0.0; });
  add("xoff = queue cap", [&](SolverInput& in) { in.ecn.xoff_bytes = cap; });
  for (const double interval : {10e-6, 17.5e-6, 1e-3, 3e-6, 1e-9}) {
    add("update interval " + std::to_string(interval),
        [&](SolverInput& in) { in.prm.update_interval_s = interval; });
  }
  add("offer one ulp above 1.001 x capacity", [](SolverInput& in) {
    in.offered = std::nextafter(in.capacity * 1.001, HUGE_VAL);
  });
  add("offer 1.0011 x capacity",
      [](SolverInput& in) { in.offered = in.capacity * 1.0011; });
  add("crippled limiter idles the queue", [](SolverInput& in) {
    in.prm.g = 1.0;
    in.prm.rate_ai_bps = mbps(1);
  });

  for (const auto& [name, in] : cases) {
    ASSERT_FALSE(cc_passes_through(in.offered, in.capacity, in.ecn, in.prm))
        << name << " must co-simulate";
    EXPECT_EQ(compare_to_reference(in).mismatch, "") << name;
  }
  // The crippled limiter really leaves most of the path idle and the queue
  // mostly empty, so the empty-queue skip runs.
  const SolverInput& in = cases.back().second;
  const CcSteadyState crippled = solve_cc_steady_state(
      in.offered, in.capacity, in.line, in.flows, in.ecn, in.prm,
      in.pkt_bytes);
  EXPECT_LT(crippled.rate_bps, 0.85 * in.capacity);
  EXPECT_LT(crippled.queue_bytes, in.ecn.kmin_bytes);
}

// The kernel runs each plain run (the steps between update-period
// boundaries) without the queue clamp and reruns it clamped when a clamp
// would have bound.  Inputs whose clamp binds at both ends, each equal to
// the reference bit for bit, with both paths counted in each: a limiter
// that cuts below the drain empties the queue (the clamp at 0), and a
// shallow curve with 1 ms updates lets a 1.05x offer fill the queue to the
// PFC XOFF ceiling and hold it there (the clamp at the ceiling).
TEST(DcqcnProperty, UnclampedPlainRunsFallBackWhereTheClampBinds) {
  SolverInput drain;
  drain.line = gbps(200);
  drain.capacity = gbps(50);
  drain.offered = gbps(190);
  drain.flows = 8;
  drain.pkt_bytes = 4178;
  drain.ecn = cc_scenario("dcqcn").materialize_ecn(2.0 * MiB);
  drain.prm.enabled = true;
  drain.prm.g = 1.0;
  drain.prm.rate_ai_bps = mbps(1);

  SolverInput fill = drain;
  fill.offered = 1.05 * fill.capacity;
  fill.prm = DcqcnParams{};
  fill.prm.enabled = true;
  fill.prm.update_interval_s = 1e-3;
  fill.ecn.kmin_bytes = 0.6 * fill.ecn.queue_cap_bytes;
  fill.ecn.kmax_bytes = fill.ecn.queue_cap_bytes;
  fill.ecn.pmax = 0.001;

  for (const bool fills : {false, true}) {
    const SolverInput& in = fills ? fill : drain;
    const char* name = fills ? "fill to xoff" : "drain to empty";
    ASSERT_FALSE(cc_passes_through(in.offered, in.capacity, in.ecn, in.prm))
        << name;
    EXPECT_EQ(compare_to_reference(in).mismatch, "") << name;
    CcKernelCounts counts;
    const CcSteadyState ss =
        solve_cc_steady_state(in.offered, in.capacity, in.line, in.flows,
                              in.ecn, in.prm, in.pkt_bytes, &counts);
    EXPECT_GT(counts.unclamped_runs, 0) << name;
    EXPECT_GT(counts.clamped_reruns, 0) << name;
    if (fills) {
      EXPECT_GT(ss.queue_bytes, 0.5 * in.ecn.occupancy_ceiling_bytes())
          << name;
    } else {
      EXPECT_LT(ss.queue_bytes, in.ecn.kmin_bytes) << name;
    }
  }
}

// The catalog contract the campaign axis relies on.
TEST(CcScenario, CatalogAndMaterialize) {
  const auto names = cc_scenario_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "off");
  EXPECT_EQ(names[1], "dcqcn");
  EXPECT_EQ(names[2], "mistuned");
  EXPECT_EQ(find_cc_scenario("no-such-cc"), nullptr);
  EXPECT_THROW(cc_scenario("no-such-cc"), std::invalid_argument);

  EXPECT_FALSE(cc_scenario("off").enabled);

  const net::EcnParams tuned =
      cc_scenario("dcqcn").materialize_ecn(2.0 * MiB);
  EXPECT_TRUE(tuned.enabled);
  EXPECT_TRUE(tuned.can_mark());
  EXPECT_LT(tuned.kmin_bytes, tuned.xoff_bytes);

  // The mistuned thresholds sit beyond the PFC ceiling on purpose.
  const net::EcnParams mistuned =
      cc_scenario("mistuned").materialize_ecn(2.0 * MiB);
  EXPECT_TRUE(mistuned.enabled);
  EXPECT_FALSE(mistuned.can_mark());
}

}  // namespace
}  // namespace collie::nic
