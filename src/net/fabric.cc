#include "net/fabric.h"

#include <algorithm>
#include <stdexcept>

namespace collie::net {

void FabricSpec::set_ecn(const EcnParams& ecn) {
  port_ecn.assign(static_cast<std::size_t>(num_ports()), ecn);
}

const EcnParams& FabricSpec::ecn(int port) const {
  static const EcnParams kDisabled{};
  if (port < 0 || port >= static_cast<int>(port_ecn.size())) return kDisabled;
  return port_ecn[static_cast<std::size_t>(port)];
}

bool FabricSpec::ecn_enabled() const {
  for (const EcnParams& e : port_ecn) {
    if (e.enabled) return true;
  }
  return false;
}

double FabricSpec::cnps_per_second(int port, double queue_bytes,
                                   double pkts_per_s, double flows,
                                   double cnp_interval_s) const {
  return ecn(port).cnps_per_second(queue_bytes, pkts_per_s, flows,
                                   cnp_interval_s);
}

double FabricSpec::uplink_bps() const {
  const double senders = std::max(fan_in, 1);
  const double over = std::max(oversubscription, 1e-9);
  return senders * port_rate(0) / over;
}

double FabricSpec::receiver_share_bps() const {
  const double senders = std::max(fan_in, 1);
  return std::min(port_rate(1), uplink_bps()) / senders;
}

bool FabricSpec::trivial_pair(double line_rate_bps) const {
  if (fan_in != 1 || oversubscription != 1.0) return false;
  if (num_ports() < 2) return false;
  for (const double rate : port_rate_bps) {
    if (rate < line_rate_bps) return false;
  }
  return true;
}

FabricSpec FabricSpec::identical_pair(double rate_bps) {
  FabricSpec spec;
  spec.port_rate_bps = {rate_bps, rate_bps};
  return spec;
}

FabricSpec FabricSpec::heterogeneous_pair(double rate_a_bps,
                                          double rate_b_bps) {
  FabricSpec spec;
  spec.port_rate_bps = {rate_a_bps, rate_b_bps};
  return spec;
}

FabricSpec FabricSpec::tor_fanin(int senders, double sender_rate_bps,
                                 double receiver_rate_bps,
                                 double oversubscription) {
  FabricSpec spec;
  spec.fan_in = std::max(senders, 1);
  spec.oversubscription = std::max(oversubscription, 1.0);
  spec.port_rate_bps.assign(1, sender_rate_bps);     // port 0: host A
  spec.port_rate_bps.push_back(receiver_rate_bps);   // port 1: host B
  for (int s = 1; s < spec.fan_in; ++s) {            // ports 2..: co-senders
    spec.port_rate_bps.push_back(sender_rate_bps);
  }
  return spec;
}

bool Fabric::record_pause(int port, double dt, double pause_fraction) {
  if (!spec_.valid_port(port)) return false;
  pause_s_[static_cast<std::size_t>(port)] += dt * pause_fraction;
  total_s_[static_cast<std::size_t>(port)] += dt;
  return true;
}

double Fabric::pause_seconds(int port) const {
  return spec_.valid_port(port) ? pause_s_[static_cast<std::size_t>(port)]
                                : 0.0;
}

double Fabric::total_seconds(int port) const {
  return spec_.valid_port(port) ? total_s_[static_cast<std::size_t>(port)]
                                : 0.0;
}

double Fabric::pause_duration_ratio(int port) const {
  const double t = total_seconds(port);
  if (t <= 0.0) return 0.0;
  return pause_seconds(port) / t;
}

double Fabric::max_pause_duration_ratio() const {
  double worst = 0.0;
  for (int p = 0; p < num_ports(); ++p) {
    worst = std::max(worst, pause_duration_ratio(p));
  }
  return worst;
}

void Fabric::reset() {
  std::fill(pause_s_.begin(), pause_s_.end(), 0.0);
  std::fill(total_s_.begin(), total_s_.end(), 0.0);
}

FabricSpec FabricScenario::materialize(double line_rate_bps) const {
  FabricSpec spec = FabricSpec::tor_fanin(
      fan_in, rate_scale_a * line_rate_bps, rate_scale_b * line_rate_bps,
      oversubscription);
  return spec;
}

namespace {

const std::vector<FabricScenario>& scenario_catalog() {
  static const std::vector<FabricScenario> catalog = [] {
    std::vector<FabricScenario> out;
    out.push_back(FabricScenario{});  // "pair": the paper's testbed

    FabricScenario hetero;
    hetero.name = "hetero";
    hetero.rate_scale_b = 0.5;
    hetero.host_b_topology = "intel_2socket";
    out.push_back(hetero);

    FabricScenario fanin;
    fanin.name = "fanin4";
    fanin.fan_in = 4;
    fanin.oversubscription = 4.0;
    out.push_back(fanin);
    return out;
  }();
  return catalog;
}

}  // namespace

const FabricScenario* find_fabric_scenario(const std::string& name) {
  for (const FabricScenario& sc : scenario_catalog()) {
    if (sc.name == name) return &sc;
  }
  return nullptr;
}

const FabricScenario& fabric_scenario(const std::string& name) {
  const FabricScenario* sc = find_fabric_scenario(name);
  if (sc == nullptr) {
    throw std::invalid_argument("unknown fabric scenario: " + name);
  }
  return *sc;
}

std::vector<std::string> fabric_scenario_names() {
  std::vector<std::string> out;
  for (const FabricScenario& sc : scenario_catalog()) out.push_back(sc.name);
  return out;
}

}  // namespace collie::net
