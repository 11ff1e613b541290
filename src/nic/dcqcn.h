// DCQCN congestion control (Zhu et al., SIGCOMM'15): the per-QP reaction
// point RoCEv2 deployments layer under PFC so that ECN, not pause frames,
// absorbs fabric congestion.
//
// The seed's NIC model exposed PFC only, which left the paper's "network is
// not congested" boundary unexplored: congestion control both *masks*
// subsystem anomalies (rate-limiting senders before a receive-side stall can
// pause the fabric) and *manufactures* them (mistuned parameters leave path
// capacity idle — the Noisy Neighbor failure mode).  This header models the
// reaction point:
//
//   * `DcqcnRateLimiter` — one sender aggregate's rate state.  Congestion
//     notifications (CNPs) cut the rate multiplicatively through the EWMA
//     congestion estimate `alpha`; CNP-free update periods decay alpha and
//     recover the rate, first by fast recovery (halving toward the pre-cut
//     target), then by additive increase.
//   * `solve_cc_steady_state` — co-simulates the limiter against a switch
//     egress queue with a RED/ECN marking curve (net::EcnParams) until the
//     admitted rate converges; the performance model folds the result into
//     its ingress fixed point.
//   * `CcScenario` — named (ECN-threshold, DCQCN-default) points a campaign
//     sweeps as its `cc` axis, including the mistuned thresholds that leave
//     PFC storms where ECN should have reacted.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/fabric.h"

namespace collie::nic {

struct DcqcnParams {
  // Is the reaction point armed at all?  Disabled reproduces the seed's
  // PFC-only behaviour bit-for-bit (no CC code runs).
  bool enabled = false;
  // EWMA gain of the congestion estimate: alpha <- (1-g)*alpha + g on a
  // marked update period, alpha <- (1-g)*alpha on an unmarked one.
  double g = 1.0 / 256.0;
  // Additive-increase step applied to the rate target once fast recovery is
  // exhausted (the DCQCN R_AI knob; mistuning this low is the classic
  // "victim flow never recovers" misconfiguration).
  double rate_ai_bps = mbps(40);
  // Update period shared by the rate-reduction window, the alpha timer and
  // the recovery timer (the reference implementation's 55us).
  double update_interval_s = 55e-6;
  // Notification-point pacing: at most one CNP per flow per interval.
  double cnp_interval_s = 50e-6;
  // Fast-recovery rounds (F): halving steps toward the pre-cut target
  // before additive increase takes over.
  int fast_recovery_rounds = 5;
  // The limiter never cuts below this floor (hardware minimum rate).
  double min_rate_bps = mbps(10);
};

// One sender aggregate's DCQCN rate state.  Drive it with step(): the
// limiter quantizes time into update periods; a period that saw at least one
// CNP cuts the rate, a CNP-free period recovers it.
//
// Invariants (pinned by tests/dcqcn_property_test.cc):
//   * alpha stays in [0, 1];
//   * the rate stays in [min_rate_bps, line_rate_bps];
//   * with no CNPs arriving, the rate is monotonically non-decreasing.
class DcqcnRateLimiter {
 public:
  DcqcnRateLimiter(const DcqcnParams& params, double line_rate_bps,
                   double initial_rate_bps);

  // Advance by `dt` seconds during which CNPs arrive at `cnp_rate` per
  // second.  Returns the admitted rate after the step.
  double step(double dt, double cnp_rate);
  // The DCQCN update rule for one completed update period: a period that
  // saw at least one CNP (`marked`) cuts the rate, a CNP-free one recovers
  // it.  step() calls it at every period boundary; solve_cc_steady_state
  // drives it directly from its precomputed period clock.
  void update_period(bool marked);

  double rate_bps() const { return rate_; }
  double target_bps() const { return target_; }
  double alpha() const { return alpha_; }
  // The parameters as normalized by the constructor (g clamped to
  // [1e-6, 1], a positive update interval, a non-negative R_AI).
  const DcqcnParams& params() const { return params_; }

 private:
  DcqcnParams params_;
  double line_rate_;
  double rate_;
  double target_;
  double alpha_ = 0.0;
  double period_acc_s_ = 0.0;  // time into the current update period
  double cnp_acc_ = 0.0;       // fractional CNPs accumulated this period
  int recovery_rounds_ = 0;
};

// The constructor and the update rule are inline: the co-simulation runs
// them in its hot loop, and inlined, the limiter's state stays in registers
// across a period boundary instead of round-tripping through memory
// around a call.
inline DcqcnRateLimiter::DcqcnRateLimiter(const DcqcnParams& params,
                                          double line_rate_bps,
                                          double initial_rate_bps)
    : params_(params),
      line_rate_(std::max(line_rate_bps, params.min_rate_bps)),
      rate_(std::clamp(initial_rate_bps, params.min_rate_bps, line_rate_)),
      target_(rate_) {
  params_.g = std::clamp(params_.g, 1e-6, 1.0);
  params_.update_interval_s = std::max(params_.update_interval_s, 1e-9);
  params_.rate_ai_bps = std::max(params_.rate_ai_bps, 0.0);
  params_.min_rate_bps = std::min(params_.min_rate_bps, line_rate_);
}

inline void DcqcnRateLimiter::update_period(bool marked) {
  const double g = params_.g;
  if (marked) {
    // Cut: the congestion estimate rises, the target remembers the pre-cut
    // rate, and the rate drops by alpha/2 (at most once per period — the
    // reaction point's rate-reduction window).
    alpha_ = (1.0 - g) * alpha_ + g;
    target_ = rate_;
    rate_ = std::max(params_.min_rate_bps, rate_ * (1.0 - alpha_ / 2.0));
    recovery_rounds_ = 0;
    return;
  }
  // CNP-free period: estimate decays, rate recovers toward the target.
  alpha_ *= (1.0 - g);
  if (recovery_rounds_ < params_.fast_recovery_rounds) {
    ++recovery_rounds_;
  } else {
    target_ = std::min(line_rate_, target_ + params_.rate_ai_bps);
  }
  // Both fast recovery and additive increase halve the gap to the target;
  // target >= rate holds throughout (the cut set target to the pre-cut
  // rate), so recovery is monotone.
  rate_ = std::min(line_rate_, 0.5 * (target_ + rate_));
}

// Converged operating point of one congested path under DCQCN/ECN.
struct CcSteadyState {
  double rate_bps = 0.0;          // time-averaged admitted sender rate
  double alpha = 0.0;             // final congestion estimate
  double mark_probability = 0.0;  // time-averaged ECN marking probability
  double queue_bytes = 0.0;       // time-averaged switch queue depth
  bool throttled = false;         // did CC withhold any offered demand?
};

// The regimes in which solve_cc_steady_state passes the offer through
// untouched without co-simulating: nothing offered, the reaction point
// disarmed, the path not congested, or marking thresholds at/above the
// queue ceiling (the mistuned configuration: PFC is the only signal left).
bool cc_passes_through(double offered_bps, double capacity_bps,
                       const net::EcnParams& ecn, const DcqcnParams& params);

// Co-simulate the reaction point against one switch egress queue: the queue
// fills at the admitted rate and drains at `capacity_bps`; its depth drives
// the ECN marking curve, whose CNPs drive the limiter.  `flows` bounds CNP
// pacing (one per flow per interval) and `pkt_bytes` converts rates to
// packet rates for marking.  Returns the time-averaged steady state; when
// the path is uncongested, ECN is disarmed, or the thresholds cannot mark
// before the queue fills, the offered rate passes through untouched (the
// PFC-storm regime).
//
// `counts`, when given, tallies how the kernel ran its plain runs (the runs
// of steps between update-period boundaries), for the kernel's tests.
struct CcKernelCounts {
  i64 unclamped_runs = 0;  // no queue clamp bound: run without the clamp
  i64 clamped_reruns = 0;  // a clamp bound: rerun with it
};
CcSteadyState solve_cc_steady_state(double offered_bps, double capacity_bps,
                                    double line_rate_bps, double flows,
                                    const net::EcnParams& ecn,
                                    const DcqcnParams& params,
                                    double pkt_bytes,
                                    CcKernelCounts* counts = nullptr);

// A named point of the congestion-control scenario space, swept as a
// campaign axis alongside fabric scenarios.  ECN thresholds are fractions
// of the switch queue so one scenario applies across port speeds.
struct CcScenario {
  std::string name = "off";
  bool enabled = false;
  double kmin_frac = 0.05;
  double kmax_frac = 0.20;
  double pmax = 0.2;
  // Defaults for workloads that arm DCQCN; the per-QP g / R_AI knobs are
  // search dimensions layered on top of these.
  DcqcnParams dcqcn;

  net::EcnParams materialize_ecn(double queue_cap_bytes) const;
};

// Scenario catalog: "off" (the seed's PFC-only switch), "dcqcn" (thresholds
// well below the PFC XOFF point: ECN absorbs congestion), and "mistuned"
// (thresholds at the top of the queue: PFC fires long before ECN, the
// fanin4 PFC-storm configuration).
const CcScenario* find_cc_scenario(const std::string& name);
// Throwing lookup for callers that already validated the name.
const CcScenario& cc_scenario(const std::string& name);
std::vector<std::string> cc_scenario_names();

}  // namespace collie::nic
