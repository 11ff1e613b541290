// The switched fabric between the experiment hosts.
//
// The seed modelled exactly the paper's platform: two identical servers on
// one lossless switch (§4).  That testbed is now one point of a scenario
// space: an N-port `FabricSpec` carries per-port rates (heterogeneous
// 100G<->200G pairs) and a ToR fan-in section (k sender ports converging on
// one receiver port behind an oversubscribed uplink), and a `FabricScenario`
// catalog names the shapes a campaign can sweep.  The switch itself stays
// lossless and never drops: when an egress section is overcommitted it
// backpressures the senders with PFC, which is exactly the pause accounting
// `Fabric` tracks per port.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/units.h"

namespace collie::net {

// RED-style ECN marking curve of one switch egress queue (DCQCN's congestion
// point, Zhu et al. SIGCOMM'15).  Below Kmin nothing is marked; between Kmin
// and Kmax the marking probability ramps linearly up to Pmax; at or beyond
// Kmax every packet is marked.  A lossless queue also backpressures with PFC
// once it fills, so thresholds above the usable queue depth describe a
// mistuned switch: PFC fires long before ECN ever reacts.
struct EcnParams {
  bool enabled = false;
  double kmin_bytes = 100.0 * KiB;
  double kmax_bytes = 400.0 * KiB;
  double pmax = 0.2;
  // Physical depth of the egress queue the thresholds refer to.
  double queue_cap_bytes = 2.0 * MiB;
  // The lossless queue never grows past the PFC XOFF point: once occupancy
  // reaches it, upstream pause holds it there.  Thresholds at or beyond
  // this ceiling are therefore dead — the mistuned configuration where PFC
  // storms do the work ECN should have done.
  double xoff_bytes = 0.7 * 2.0 * MiB;

  // Inline: the DCQCN co-simulation evaluates the curve once per step.
  double mark_probability(double queue_bytes) const {
    if (!enabled || pmax <= 0.0) return 0.0;
    if (queue_bytes < kmin_bytes) return 0.0;
    if (queue_bytes >= kmax_bytes) return 1.0;
    const double span = std::max(kmax_bytes - kmin_bytes, 1.0);
    return pmax * (queue_bytes - kmin_bytes) / span;
  }
  // CNP generation from this queue: marking probability times the packet
  // rate, paced to at most one CNP per flow per `cnp_interval_s`.
  double cnps_per_second(double queue_bytes, double pkts_per_s, double flows,
                         double cnp_interval_s) const {
    return cnps_at_mark_probability(mark_probability(queue_bytes), pkts_per_s,
                                    flows, cnp_interval_s);
  }
  // The single definition of the notification-point formula, for a caller
  // that already holds the queue's marking probability `p` (the fabric API
  // and the DCQCN co-simulation both end here).
  static double cnps_at_mark_probability(double p, double pkts_per_s,
                                         double flows, double cnp_interval_s) {
    return cnps_at_mark_probability(p, pkts_per_s,
                                    cnp_pace_cap(flows, cnp_interval_s));
  }
  // The same formula with the pacing cap already taken: the cap depends
  // only on (flows, cnp_interval_s), so a caller that evaluates the
  // formula per step computes it once.
  static double cnps_at_mark_probability(double p, double pkts_per_s,
                                         double pace_cap) {
    if (p <= 0.0 || pkts_per_s <= 0.0) return 0.0;
    return std::min(p * pkts_per_s, pace_cap);
  }
  // At most one CNP per flow per `cnp_interval_s`; no cap (infinity)
  // when pacing is off.  min(x, inf) is x for every x, NaN included.
  static double cnp_pace_cap(double flows, double cnp_interval_s) {
    return cnp_interval_s > 0.0 ? std::max(flows, 1.0) / cnp_interval_s
                                : std::numeric_limits<double>::infinity();
  }
  // Highest occupancy the queue can actually reach under PFC.
  double occupancy_ceiling_bytes() const {
    return xoff_bytes > 0.0 && xoff_bytes < queue_cap_bytes ? xoff_bytes
                                                            : queue_cap_bytes;
  }
  // Can this queue mark at all before PFC takes over?
  bool can_mark() const {
    return enabled && pmax > 0.0 && kmin_bytes < occupancy_ceiling_bytes();
  }
};

struct FabricSpec {
  // Per-port line rates.  Port 0 carries host A (every fan-in sender runs at
  // port 0's rate), port 1 carries host B (the receiver port of fan-in
  // scenarios).  Defaults reproduce the paper's identical 200G pair.
  std::vector<double> port_rate_bps{gbps(200), gbps(200)};
  // Paper §4: "two RNICs connected by a single switch, and there is no
  // packet drop on the switch."
  bool lossless = true;
  // Sender hosts converging on host B's port (1 = the plain pair).  The
  // senders are identical replicas of host A; the performance model solves
  // one of them and scales the receiver-side contention.
  int fan_in = 1;
  // ToR downlink:uplink ratio of the fan-in section.  With fan_in senders at
  // port-0 rate behind a `oversubscription`:1 uplink, the aggregate toward
  // host B is capped at fan_in * rate / oversubscription.
  double oversubscription = 1.0;

  // Per-port ECN marking thresholds.  Empty (the default, and the paper's
  // PFC-only switch) means no port marks; `set_ecn` arms every port.  A
  // shorter vector than `port_rate_bps` leaves the tail ports unmarked.
  std::vector<EcnParams> port_ecn;

  int num_ports() const { return static_cast<int>(port_rate_bps.size()); }
  bool valid_port(int port) const {
    return port >= 0 && port < num_ports();
  }
  // Rate of `port`, or 0 for an out-of-range port (never UB).
  double port_rate(int port) const {
    return valid_port(port) ? port_rate_bps[static_cast<std::size_t>(port)]
                            : 0.0;
  }

  // Arm every port with the given marking curve.
  void set_ecn(const EcnParams& ecn);
  // Marking curve of `port`; a disabled default for unarmed/out-of-range
  // ports (never UB, like port_rate).
  const EcnParams& ecn(int port) const;
  // Does any port mark ECN?
  bool ecn_enabled() const;
  // CNP generation at `port`'s egress queue: the rate of congestion
  // notifications the switch sends back to the traffic sources, given the
  // queue depth and the delivered packet rate.  DCQCN notification points
  // pace CNPs to at most one per flow per `cnp_interval_s`.
  double cnps_per_second(int port, double queue_bytes, double pkts_per_s,
                         double flows, double cnp_interval_s) const;

  // Aggregate capacity of the ToR uplink feeding host B's port.
  double uplink_bps() const;
  // Per-sender share of the path into host B: min(receiver port, uplink)
  // divided across the fan-in senders.
  double receiver_share_bps() const;

  // The paper's testbed shape: one sender per receiver, no oversubscription,
  // and no port slower than the NIC line rate.  The performance model keeps
  // its seed behaviour bit-for-bit on trivial fabrics.
  bool trivial_pair(double line_rate_bps) const;

  static FabricSpec identical_pair(double rate_bps);
  static FabricSpec heterogeneous_pair(double rate_a_bps, double rate_b_bps);
  static FabricSpec tor_fanin(int senders, double sender_rate_bps,
                              double receiver_rate_bps,
                              double oversubscription);
};

// Per-port pause bookkeeping for one measurement run.  Out-of-range ports
// are rejected, not UB: `record_pause` reports failure and reads return 0 —
// the old assert-only guards compiled out in Release builds and let bad
// indices silently corrupt neighbouring ports' accounting.
class Fabric {
 public:
  explicit Fabric(const FabricSpec& spec)
      : spec_(spec),
        pause_s_(static_cast<std::size_t>(spec_.num_ports()), 0.0),
        total_s_(static_cast<std::size_t>(spec_.num_ports()), 0.0) {}

  const FabricSpec& spec() const { return spec_; }
  int num_ports() const { return spec_.num_ports(); }

  // Record that `port` (0 = host A, 1 = host B, 2.. = extra fan-in senders)
  // was paused for `pause_fraction` of an epoch lasting `dt` seconds.
  // Returns false (recording nothing) for an out-of-range port.
  bool record_pause(int port, double dt, double pause_fraction);

  double pause_seconds(int port) const;
  double total_seconds(int port) const;
  double pause_duration_ratio(int port) const;
  // Worst pause duration ratio across all ports.
  double max_pause_duration_ratio() const;

  void reset();

 private:
  FabricSpec spec_;
  std::vector<double> pause_s_;
  std::vector<double> total_s_;
};

// A named point of the fabric scenario space.  Port rates scale the
// subsystem's NIC line rate so one scenario applies across the catalog
// (subsystem A's "hetero" pair is 25G<->12.5G, subsystem F's 200G<->100G).
struct FabricScenario {
  std::string name = "pair";
  double rate_scale_a = 1.0;  // host A / fan-in sender ports
  double rate_scale_b = 1.0;  // host B / receiver port
  int fan_in = 1;
  double oversubscription = 1.0;
  // Optional topo factory name (topo::host_by_name) for host B; empty keeps
  // host B identical to host A, the paper's pairing.
  std::string host_b_topology;

  FabricSpec materialize(double line_rate_bps) const;
};

// Scenario catalog: "pair" (the paper's testbed), "hetero" (full-rate host A
// against a half-rate host B of a different host generation) and "fanin4"
// (four senders into one receiver port behind a 4:1 oversubscribed uplink).
const FabricScenario* find_fabric_scenario(const std::string& name);
// Throwing lookup for callers that already validated the name.
const FabricScenario& fabric_scenario(const std::string& name);
std::vector<std::string> fabric_scenario_names();

}  // namespace collie::net
