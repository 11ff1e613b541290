#include "nic/dcqcn.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "nic/pfc.h"

namespace collie::nic {

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

namespace {

// DcqcnRateLimiter::step's update-period clock, cut ahead of the
// co-simulation.  How each fixed step splits into slices, and which slices
// close an update period, depends only on (dt, interval), never on the
// queue or the rate.  Run inside the solver's loop, its
// interval - period_acc -> min -> += chain would be the loop-carried
// critical path of every step.  The clock fills a fixed buffer of events
// with exactly the float operations step() runs, and the solver reads
// them back.
//
// The clock's whole future is a function of period_acc at a step start.
// Once a step start repeats one seen earlier in the same fill (bit for
// bit; Brent's power-of-two checkpoints keep the search O(1) per step),
// the events since that step form a cycle, and the buffer replays them
// instead of recomputing them.  At the catalog's 55 us interval the clock
// cycles after a 3-step prefix with period 11.  Intervals that never
// cycle (17.5 us, 1 ms) refill the buffer each time it drains.
class UpdateClock {
 public:
  struct Event {
    double slice;      // the part of the step this event advances
    int plain_steps;   // at a step start: how many plain steps (a single
                       // slice, no period boundary) follow in the buffer
    bool ends_period;  // an update period completes at its end
    bool ends_step;    // the step completes at its end
  };

  UpdateClock(double dt, double interval) : dt_(dt), interval_(interval) {}
  UpdateClock(const UpdateClock&) = delete;
  UpdateClock& operator=(const UpdateClock&) = delete;

  // The plain steps ahead of a step start, at most `limit` of them; 0
  // means the next step crosses a period boundary.
  int plain_steps(int limit) {
    if (next_ == end_) [[unlikely]] wrap();
    return std::min(next_->plain_steps, limit);
  }
  // The events of `n` plain steps (n <= plain_steps()), one per step.
  const Event* take_plain(int n) {
    const Event* first = next_;
    next_ += n;
    return first;
  }
  const Event& next() {
    if (next_ == end_) [[unlikely]] wrap();
    return *next_++;
  }

 private:
  static constexpr int kEvents = 64;

  void wrap() {
    if (cycle_ != nullptr) {
      next_ = cycle_;
    } else {
      refill();
    }
  }

  [[gnu::noinline]] void refill() {
    int n = 0;
    int steps = 0;
    int checkpoint_step = 0;  // Brent: steps 0, 1, 2, 4, 8, ...
    int checkpoint = -1;      // event index of the checkpointed step start
    u64 checkpoint_acc = 0;
    while (n < kEvents) {
      if (!(remaining_ > 0.0)) {  // a step starts here
        const u64 acc = std::bit_cast<u64>(period_acc_);
        if (checkpoint >= 0 && acc == checkpoint_acc) {
          cycle_ = events_ + checkpoint;
          break;
        }
        if (steps == checkpoint_step) {
          checkpoint = n;
          checkpoint_acc = acc;
          checkpoint_step = std::max(1, 2 * steps);
        }
        ++steps;
        remaining_ = dt_;
      }
      const double slice = std::min(remaining_, interval_ - period_acc_);
      period_acc_ += slice;
      remaining_ -= slice;
      const bool ends_period = period_acc_ >= interval_ - 1e-15;
      if (ends_period) period_acc_ = 0.0;
      events_[n++] = Event{slice, 0, ends_period, !(remaining_ > 0.0)};
    }
    // Counted from the back; only the values at step starts are read.
    int plain = 0;
    for (int k = n - 1; k >= 0; --k) {
      Event& ev = events_[k];
      plain = ev.ends_step && !ev.ends_period ? plain + 1 : 0;
      ev.plain_steps = plain;
    }
    next_ = events_;
    end_ = events_ + n;
  }

  const double dt_;
  const double interval_;
  double period_acc_ = 0.0;  // time into the current update period
  double remaining_ = 0.0;   // time left in the step being cut
  Event events_[kEvents]{};
  const Event* next_ = events_;
  const Event* end_ = events_;
  const Event* cycle_ = nullptr;  // where the replay restarts, once known
};

}  // namespace

CcSteadyState solve_cc_steady_state(double offered_bps, double capacity_bps,
                                    double line_rate_bps, double flows,
                                    const net::EcnParams& ecn,
                                    const DcqcnParams& params,
                                    double pkt_bytes,
                                    CcKernelCounts* counts) {
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
  const int samples = total_steps - warmup_steps;
  const double queue_ceiling = ecn.occupancy_ceiling_bytes();
  // This loop computes what the limiter-driven loop in
  // tests/dcqcn_property_test.cc computes, bit for bit: the same float
  // operations in the same order.  It only leaves out work that cannot
  // change a bit (DESIGN.md, "The co-simulation's cost").
  //
  // The marking curve is net::EcnParams::mark_probability with its span
  // hoisted; cc_passes_through() above guarantees the curve is armed with
  // pmax > 0.  The CNP pacing cap is taken once, too.
  const double kmin = ecn.kmin_bytes;
  const double kmax = ecn.kmax_bytes;
  const double pmax = ecn.pmax;
  const double span = std::max(kmax - kmin, 1.0);
  const double pace_cap =
      net::EcnParams::cnp_pace_cap(flows, params.cnp_interval_s);
  // An empty queue that cannot mark stays empty and unmarked while the
  // rate does not outrun the drain: no CNPs, nothing to add to the sums.
  const bool empty_queue_is_quiet =
      queue_ceiling >= 0.0 && ecn.mark_probability(0.0) == 0.0;
  UpdateClock clock(dt, limiter.params().update_interval_s);
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
  // One step's queue update and marking.  Returns the CNP rate; below
  // Kmin that is 0 without evaluating the curve.  A zero mark adds
  // nothing to the non-negative sum_mark, so it is not added.
  const auto fill_queue = [&](auto averaging, auto clamped) {
    if constexpr (clamped) {
      queue = std::clamp(queue + queue_step, 0.0, queue_ceiling);
    } else {
      queue = queue + queue_step;
    }
    if constexpr (averaging) sum_queue += queue;
    if (queue < kmin) return 0.0;
    const double mark = queue >= kmax ? 1.0 : pmax * (queue - kmin) / span;
    if constexpr (averaging) sum_mark += mark;
    return std::max(
        net::EcnParams::cnps_at_mark_probability(mark, pps, pace_cap), 0.0);
  };
  // Warm-up, then the averaging window: one loop body, two phases.
  const auto run = [&](int steps, auto averaging) {
    int i = 0;
    while (i < steps) {
      // Plain steps first: the rate, and all that derives from it, is
      // fixed until the next boundary.
      if (const int plain = clock.plain_steps(steps - i); plain > 0) {
        const UpdateClock::Event* ev = clock.take_plain(plain);
        i += plain;
        if (empty_queue_is_quiet && queue == 0.0 && queue_step <= 0.0) {
          // The queue, its mark and the CNP rate stay 0: cnp_acc + 0.0
          // == cnp_acc, and likewise for the sums but sum_rate.
          if constexpr (averaging) {
            for (int k = 0; k < plain; ++k) sum_rate += admitted;
          }
        } else {
          // Within a plain run queue_step is fixed, so the unclamped queue
          // x_k = x_{k-1} + queue_step is monotone (rounding is monotone):
          // every x_k lies between the first and the last.  When both lie
          // in [0, queue_ceiling], no clamp of the run changes a value, and
          // the run without the clamp (off the queue's loop-carried chain)
          // computes the same bits.  So run it that way, then check; when
          // a clamp would have bound, restore the state and rerun the run
          // clamped.
          const double queue0 = queue;
          const double cnp_acc0 = cnp_acc;
          const double sum_queue0 = sum_queue;
          const double sum_mark0 = sum_mark;
          const double sum_rate0 = sum_rate;
          const auto plain_run = [&](auto clamped) {
            for (int k = 0; k < plain; ++k) {
              const double cnp_rate = fill_queue(averaging, clamped);
              cnp_acc += cnp_rate * ev[k].slice;
              if constexpr (averaging) sum_rate += admitted;
            }
          };
          plain_run(std::false_type{});
          const double first = queue0 + queue_step;
          if (first >= 0.0 && first <= queue_ceiling && queue >= 0.0 &&
              queue <= queue_ceiling) [[likely]] {
            if (counts != nullptr) ++counts->unclamped_runs;
          } else {
            queue = queue0;
            cnp_acc = cnp_acc0;
            sum_queue = sum_queue0;
            sum_mark = sum_mark0;
            sum_rate = sum_rate0;
            plain_run(std::true_type{});
            if (counts != nullptr) ++counts->clamped_reruns;
          }
        }
        if (i == steps) break;
      }
      // Then the step that crosses the next period boundary (or, where
      // the buffer cut a run short, one more plain step).
      const double cnp_rate = fill_queue(averaging, std::true_type{});
      for (;;) {
        const UpdateClock::Event& ev = clock.next();
        cnp_acc += cnp_rate * ev.slice;
        if (ev.ends_period) {
          limiter.update_period(/*marked=*/cnp_acc >= 1.0);
          cnp_acc = 0.0;
          rate_changed();
        }
        if (ev.ends_step) break;
      }
      if constexpr (averaging) sum_rate += admitted;
      ++i;
    }
  };
  run(warmup_steps, std::false_type{});
  run(samples, std::true_type{});
  out.rate_bps = std::min(sum_rate / samples, offered_bps);
  out.alpha = limiter.alpha();
  out.mark_probability = sum_mark / samples;
  out.queue_bytes = sum_queue / samples;
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
