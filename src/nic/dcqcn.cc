#include "nic/dcqcn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nic/pfc.h"

namespace collie::nic {

DcqcnRateLimiter::DcqcnRateLimiter(const DcqcnParams& params,
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

void DcqcnRateLimiter::update_period(bool marked) {
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

double DcqcnRateLimiter::step(double dt, double cnp_rate) {
  double remaining = std::max(dt, 0.0);
  cnp_rate = std::max(cnp_rate, 0.0);
  while (remaining > 0.0) {
    const double slice =
        std::min(remaining, params_.update_interval_s - period_acc_s_);
    period_acc_s_ += slice;
    cnp_acc_ += cnp_rate * slice;
    remaining -= slice;
    if (period_acc_s_ >= params_.update_interval_s - 1e-15) {
      update_period(/*marked=*/cnp_acc_ >= 1.0);
      period_acc_s_ = 0.0;
      cnp_acc_ = 0.0;
    }
  }
  return rate_;
}

bool cc_passes_through(double offered_bps, double capacity_bps,
                       const net::EcnParams& ecn, const DcqcnParams& params) {
  return offered_bps <= 0.0 || !params.enabled || !ecn.can_mark() ||
         offered_bps <= capacity_bps * 1.001;
}

CcSteadyState solve_cc_steady_state(double offered_bps, double capacity_bps,
                                    double line_rate_bps, double flows,
                                    const net::EcnParams& ecn,
                                    const DcqcnParams& params,
                                    double pkt_bytes) {
  CcSteadyState out;
  out.rate_bps = std::max(offered_bps, 0.0);
  if (cc_passes_through(offered_bps, capacity_bps, ecn, params)) return out;

  pkt_bytes = std::max(pkt_bytes, 64.0);
  DcqcnRateLimiter limiter(params, line_rate_bps, offered_bps);
  // Queue/marking dynamics move on O(10us) at 100G; the fixed step keeps
  // the co-simulation deterministic and cheap (~24k trivial steps).
  const double dt = 10e-6;
  const int total_steps = 24000;           // 240ms of simulated time
  const int warmup_steps = total_steps / 2;
  const double queue_ceiling = ecn.occupancy_ceiling_bytes();
  // DcqcnRateLimiter::step's update-period slicing, fused into this loop so
  // everything derived from the rate is recomputed only when a period ends
  // and moves it.  tests/dcqcn_property_test.cc keeps the limiter-driven
  // loop as the reference this one must match bit for bit.
  const double interval = limiter.params().update_interval_s;
  double period_acc = 0.0;  // time into the current update period
  double cnp_acc = 0.0;     // fractional CNPs accumulated this period
  double admitted = 0.0;    // min(rate, offer): what enters the queue
  double queue_step = 0.0;  // queue growth per step at that rate
  double pps = 0.0;         // packet rate the marking curve sees
  const auto rate_changed = [&] {
    admitted = std::min(limiter.rate_bps(), offered_bps);
    queue_step = (admitted - capacity_bps) / 8.0 * dt;
    pps = admitted / (8.0 * pkt_bytes);
  };
  rate_changed();
  double queue = 0.0;
  double sum_rate = 0.0;
  double sum_mark = 0.0;
  double sum_queue = 0.0;
  int samples = 0;
  for (int i = 0; i < total_steps; ++i) {
    queue = std::clamp(queue + queue_step, 0.0, queue_ceiling);
    const double mark = ecn.mark_probability(queue);
    const double cnp_rate =
        std::max(net::EcnParams::cnps_at_mark_probability(
                     mark, pps, flows, params.cnp_interval_s),
                 0.0);
    double remaining = dt;
    while (remaining > 0.0) {
      const double slice = std::min(remaining, interval - period_acc);
      period_acc += slice;
      cnp_acc += cnp_rate * slice;
      remaining -= slice;
      if (period_acc >= interval - 1e-15) {
        limiter.update_period(/*marked=*/cnp_acc >= 1.0);
        period_acc = 0.0;
        cnp_acc = 0.0;
        rate_changed();
      }
    }
    if (i >= warmup_steps) {
      sum_rate += admitted;
      sum_mark += mark;
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

net::EcnParams CcScenario::materialize_ecn(double queue_cap_bytes) const {
  net::EcnParams ecn;
  ecn.enabled = enabled;
  ecn.queue_cap_bytes = queue_cap_bytes;
  ecn.kmin_bytes = kmin_frac * queue_cap_bytes;
  ecn.kmax_bytes = kmax_frac * queue_cap_bytes;
  ecn.pmax = pmax;
  // PFC caps the occupancy at the XOFF point of an equally-sized buffer.
  ecn.xoff_bytes = PfcParams{}.xoff_fraction * queue_cap_bytes;
  return ecn;
}

namespace {

const std::vector<CcScenario>& cc_catalog() {
  static const std::vector<CcScenario> catalog = [] {
    std::vector<CcScenario> out;
    out.push_back(CcScenario{});  // "off": the seed's PFC-only switch

    CcScenario tuned;
    tuned.name = "dcqcn";
    tuned.enabled = true;
    tuned.kmin_frac = 0.05;
    tuned.kmax_frac = 0.20;
    tuned.pmax = 0.2;
    tuned.dcqcn.enabled = true;
    out.push_back(tuned);

    // Thresholds parked at the top of the queue: the queue hits the PFC
    // XOFF point (~0.7 of the buffer) long before Kmin, so ECN never
    // reacts and congestion shows up as a PFC storm the monitor must
    // attribute to the fabric, not the subsystem.
    CcScenario mistuned;
    mistuned.name = "mistuned";
    mistuned.enabled = true;
    mistuned.kmin_frac = 0.95;
    mistuned.kmax_frac = 1.0;
    mistuned.pmax = 0.02;
    mistuned.dcqcn.enabled = true;
    out.push_back(mistuned);
    return out;
  }();
  return catalog;
}

}  // namespace

const CcScenario* find_cc_scenario(const std::string& name) {
  for (const CcScenario& sc : cc_catalog()) {
    if (sc.name == name) return &sc;
  }
  return nullptr;
}

const CcScenario& cc_scenario(const std::string& name) {
  const CcScenario* sc = find_cc_scenario(name);
  if (sc == nullptr) {
    throw std::invalid_argument("unknown cc scenario: " + name);
  }
  return *sc;
}

std::vector<std::string> cc_scenario_names() {
  std::vector<std::string> out;
  for (const CcScenario& sc : cc_catalog()) out.push_back(sc.name);
  return out;
}

}  // namespace collie::nic
