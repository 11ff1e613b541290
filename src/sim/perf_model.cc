#include "sim/perf_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/counter_stream.h"
#include "common/pmath.h"
#include "net/fabric.h"
#include "net/wire.h"
#include "nic/dcqcn.h"
#include "nic/pfc.h"

namespace collie::sim {

const char* to_string(Bottleneck b) {
  switch (b) {
    case Bottleneck::kNone:
      return "none";
    case Bottleneck::kTxEngine:
      return "tx_engine";
    case Bottleneck::kQpcCacheMiss:
      return "qpc_cache_miss";
    case Bottleneck::kMttCacheMiss:
      return "mtt_cache_miss";
    case Bottleneck::kRwqeSteadyMiss:
      return "rwqe_steady_miss";
    case Bottleneck::kRwqeBurstMiss:
      return "rwqe_burst_miss";
    case Bottleneck::kReadPacketProcessing:
      return "read_packet_processing";
    case Bottleneck::kBidirPacketProcessing:
      return "bidir_packet_processing";
    case Bottleneck::kRequestTracker:
      return "request_tracker";
    case Bottleneck::kPcieBandwidth:
      return "pcie_bandwidth";
    case Bottleneck::kPcieOrdering:
      return "pcie_ordering";
    case Bottleneck::kHostTopologyPath:
      return "host_topology_path";
    case Bottleneck::kNicIncast:
      return "nic_incast";
    case Bottleneck::kMtuSchedulerQuirk:
      return "mtu_scheduler_quirk";
    case Bottleneck::kFabricCongestion:
      return "fabric_congestion";
    case Bottleneck::kCcThrottled:
      return "cc_throttled";
    case Bottleneck::kCount:
      break;
  }
  return "?";
}

namespace {

constexpr double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

double log2_safe(double v) { return pmath::log2(std::max(v, 1.0)); }

// Jitter slots within one epoch of the counter stream: the index of a
// draw is epoch * kJitterSlots + slot.
constexpr int kSenderSlot = 0;  // perf counters and stalled arrivals
constexpr int kDiagSlot = 1;    // + DiagCounter index (9 slots)
constexpr int kDrainSlot = 10;  // + receiving host (2 slots)
constexpr int kJitterSlots = 16;  // slots 12-15 are reserved
static_assert(kDiagSlot + kNumDiagCounters <= kDrainSlot);

// Counter fetches per experiment (§6: four once-per-second fetches).
constexpr int kCounterSamples = 4;

// At most four flows exist (see build_model); rates and solver dirty flags
// live in fixed arrays so the hot path never sizes anything dynamically.
constexpr std::size_t kMaxFlows = 4;
// Resources per host: wire out/in, engine, PCIe read/write, the cross-socket
// pair, the internal bus and its loopback limiter, the ICM fetch engine;
// plus one sender quirk cap per flow.  The scratch reserves this once, so
// build_model's references into the table stay valid while it fills them.
constexpr std::size_t kMaxResources = 2 * 10 + kMaxFlows;

// One traffic flow in the solved system.  At most three exist: the A->B
// data flow, the mirrored B->A flow (bidirectional workloads) and the
// on-host loopback flow of anomaly-#13-style co-location.  Rates are NOT
// stored here: the two solver passes (offered vs admitted) keep their own
// rate arrays over one shared flow table.
struct Flow {
  int src = 0;        // host whose memory the data leaves
  int dst = 1;        // host whose memory the data lands in
  int initiator = 0;  // host that posts the WQEs (== dst for READ)
  double qps = 1.0;
  bool is_send = false;
  bool is_read = false;
  bool is_loop = false;
  topo::MemPlacement src_mem;
  topo::MemPlacement dst_mem;

  // Per-message coefficients, all linear in the flow's message rate.
  double bytes_per_msg = 0.0;
  double pkts_per_msg = 0.0;
  double wire_bytes_per_msg = 0.0;
  double acks_per_msg = 0.0;
  double wqe_bytes = 0.0;
  double smalls_per_msg = 0.0;  // SGEs <= 1KB per WQE (ordering model)
  double larges_per_msg = 0.0;  // SGEs >= 64KB per WQE

  double steady_loss = 0.0;       // delivered = rate * (1 - steady_loss)
  double steady_miss = 0.0;       // receive-WQE steady miss ratio
  double burst_miss = 0.0;        // receive-WQE burst miss ratio
  double burst_stall_pkts = 0.0;  // RX engine pkt-equivalents per message
  double tracker_stall_pkts = 0.0;
  double tracker_pressure = 0.0;  // outstanding/capacity, also below 1
  double qpc_miss_exposed = 0.0;  // exposed ICM miss events per message
  double mtt_miss_exposed = 0.0;
  double read_rx_mult = 1.0;      // READ-response processing demand factor
  double sender_cap_msgs = 1e18;  // absolute message-rate cap (quirks)
};

using RateArray = std::array<double, kMaxFlows>;
static_assert(std::is_same_v<RateArray, decltype(SteadySolve::rate)>);

// Resource identity: a kind + host slot instead of a heap-allocated name.
// The human-readable name (for SimResult::bottleneck_note) is formatted on
// demand, outside the solver loop.
enum class ResKind : unsigned char {
  kWireOut,
  kWireIn,
  kEngine,
  kPcieRd,
  kPcieWr,
  kXsocketIn,
  kXsocketOut,
  kInternalBus,
  kLoopbackLimiter,
  kIcmFetch,
  kTxQuirk,
};

// A linear capacity constraint: sum_f coeff[f] * rate_f <= capacity.
struct Resource {
  ResKind kind = ResKind::kWireOut;
  int host = -1;
  Bottleneck tag = Bottleneck::kNone;
  bool rx_stall = false;  // binding here stalls a receiver -> PFC pauses
  int pause_port = -1;
  double capacity = 0.0;
  std::array<double, kMaxFlows> coeff{};

  double demand(const std::vector<Flow>& flows, const RateArray& rate) const {
    double d = 0.0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      d += coeff[i] * rate[i];
    }
    return d;
  }

  // A dead resource (zero-rate fabric port) with live demand is infinitely
  // overloaded, not idle: the solver must squash its flows instead of
  // ignoring the constraint.
  double utilization_of(double d) const {
    if (capacity <= 0.0) return d > 0.0 ? 1e18 : 0.0;
    return d / capacity;
  }

  double utilization(const std::vector<Flow>& flows,
                     const RateArray& rate) const {
    return utilization_of(demand(flows, rate));
  }
};

void assign_name(std::string& out, ResKind kind, int host) {
  char buf[24];
  const char hc = static_cast<char>('A' + host);
  switch (kind) {
    case ResKind::kWireOut:
      std::snprintf(buf, sizeof buf, "wire_out[%c]", hc);
      break;
    case ResKind::kWireIn:
      std::snprintf(buf, sizeof buf, "wire_in[%c]", hc);
      break;
    case ResKind::kEngine:
      std::snprintf(buf, sizeof buf, "engine[%c]", hc);
      break;
    case ResKind::kPcieRd:
      std::snprintf(buf, sizeof buf, "pcie_rd[%c]", hc);
      break;
    case ResKind::kPcieWr:
      std::snprintf(buf, sizeof buf, "pcie_wr[%c]", hc);
      break;
    case ResKind::kXsocketIn:
      std::snprintf(buf, sizeof buf, "xsocket_in[%c]", hc);
      break;
    case ResKind::kXsocketOut:
      std::snprintf(buf, sizeof buf, "xsocket_out[%c]", hc);
      break;
    case ResKind::kInternalBus:
      std::snprintf(buf, sizeof buf, "internal_bus[%c]", hc);
      break;
    case ResKind::kLoopbackLimiter:
      std::snprintf(buf, sizeof buf, "loopback_limiter[%c]", hc);
      break;
    case ResKind::kIcmFetch:
      std::snprintf(buf, sizeof buf, "icm_fetch[%c]", hc);
      break;
    case ResKind::kTxQuirk:
      std::snprintf(buf, sizeof buf, "tx_scheduler_quirk");
      break;
  }
  out.assign(buf);
}

// ---- Per-flow mechanism coefficients ------------------------------------

void compute_rwqe_effects(const Subsystem& sys, const Workload& w, Flow& f) {
  if (!f.is_send) return;
  const nic::NicModel& m = sys.nicm;
  const nic::NicQuirks& q = m.q;
  const double pkt_time_ns = 1e9 / m.max_pps;

  // Effective prefetch window: RC/UC prefetch further ahead than UD, but a
  // small MTU makes RC hold prefetched WQEs longer (multi-packet SENDs).
  double window = q.rwqe_prefetch_window;
  double knee = q.rwqe_deep_wq_knee;
  double type_gate = 1.0;
  if (w.qp_type != QpType::kUD) {
    window *= 4.0;
    knee *= 4.0;
    if (w.mtu <= 1024) {
      window /= std::max(q.rc_small_mtu_rwqe_amplifier, 1.0);
    }
    // RC's stricter trigger (Appendix A, anomalies #5/#6): the effect needs
    // a small MTU and scatter-gathered requests to materialize.
    type_gate = (w.mtu <= 1024 ? 1.0 : 0.2) * (w.sge_per_wqe >= 2 ? 1.0 : 0.5);
    if (w.qp_type == QpType::kUC) type_gate *= 0.8;
  }

  // Steady-state pollution: a deep receive queue makes the prefetcher walk
  // (and thrash) the cache across every connection.  Only entries beyond
  // the pollution knee count (shallow rings wrap and stay resident).  UD
  // entries occupy more cache (GRH scratch + address handle).
  const double footprint =
      w.qp_type == QpType::kUD ? q.ud_rwqe_footprint : 1.0;
  const double polluting_depth = std::max(
      0.0, std::min<double>(w.recv_wq_depth, 2048.0) -
               q.rwqe_pollution_depth_knee);
  const double steady_ws = f.qps * polluting_depth * footprint;
  f.steady_miss = m.rwqe_cache().miss_ratio(steady_ws) * type_gate;
  f.steady_loss = clamp01(q.rwqe_steady_penalty * f.steady_miss);

  // Burst misses: posting batches larger than the prefetch window defeats
  // it, but only once the queue is deep enough that the batch tail is cold.
  const double cold =
      clamp01((w.recv_wq_depth - 0.6 * knee) / (0.4 * knee));
  const double burst_over =
      std::max(0.0, static_cast<double>(w.wqe_batch) - window) /
      std::max<double>(w.wqe_batch, 1.0);
  f.burst_miss = burst_over * cold;
  if (q.steady_miss_stalls_pipeline) {
    // P2100G: even anticipated misses stall the RX pipeline (anomaly #17).
    f.burst_miss = clamp01(f.burst_miss + 0.5 * f.steady_miss);
    f.steady_loss = 0.0;
  }
  f.burst_stall_pkts = f.burst_miss * q.rwqe_burst_stall_ns / pkt_time_ns;
}

void compute_icm_effects(const Subsystem& sys, const Workload& w, Flow& f) {
  const nic::NicModel& m = sys.nicm;
  const double dir_mult = w.bidirectional ? 2.0 : 1.0;
  const double qpc_ws = static_cast<double>(w.num_qps) * dir_mult;
  const double pages_per_mr =
      std::ceil(static_cast<double>(w.mr_size) / 4096.0);
  const double mtt_ws =
      static_cast<double>(w.total_mrs()) * pages_per_mr * dir_mult;
  const double qpc_miss = m.qpc_cache().miss_ratio(qpc_ws);
  const double mtt_miss = m.mtt_cache().miss_ratio(mtt_ws);

  // The miss penalty is hidden by the pipeline when requests are large or
  // the send pipeline is deep (Appendix A: "if the request size is
  // relatively large ... the cache miss will not have a large effect").
  const double size_exposure =
      clamp01(1.0 - f.bytes_per_msg / (16.0 * KiB));
  const double pipeline_exposure =
      clamp01(1.2 - 0.15 * log2_safe(w.wqe_batch) -
              0.15 * log2_safe(std::max(w.send_wq_depth, 16) / 16.0));
  const double exposure = size_exposure * pipeline_exposure;
  f.qpc_miss_exposed = qpc_miss * exposure;
  f.mtt_miss_exposed = mtt_miss * exposure;
}

void compute_tracker_effects(const Subsystem& sys, const Workload& w,
                             const PatternStats& p, Flow& f) {
  if (!w.bidirectional || f.is_loop) return;
  const nic::NicModel& m = sys.nicm;
  double stall = 0.0;
  double pressure = 0.0;
  if (f.is_read && m.read_tracker_entries > 0) {
    // Anomaly #4: bidirectional READ with large WQE batches and long SG
    // lists overflows the outstanding-read tracker.
    const double outstanding = f.qps * w.wqe_batch * w.sge_per_wqe;
    pressure = std::max(pressure, outstanding / m.read_tracker_entries);
    stall = std::max(stall, clamp01((outstanding - m.read_tracker_entries) /
                                    m.read_tracker_entries));
  }
  if (!f.is_read && w.qp_type == QpType::kRC &&
      m.short_req_tracker_entries > 0 && p.frac_small_msgs >= 0.25 &&
      p.frac_large_msgs > 0.0) {
    // Anomaly #10: floods of short requests queued behind long ones.
    const double outstanding = f.qps * w.wqe_batch * p.frac_small_msgs;
    pressure =
        std::max(pressure, outstanding / m.short_req_tracker_entries);
    stall = std::max(stall,
                     clamp01((outstanding - m.short_req_tracker_entries) /
                             m.short_req_tracker_entries));
  }
  if (!f.is_read && m.pkt_tracker_entries > 0 && w.wqe_batch >= 8) {
    // Anomaly #18 (P2100G): batched multi-packet bursts overflow the
    // per-packet tracker at small MTU.
    const double outstanding = f.qps * w.wqe_batch * p.avg_pkts_per_msg;
    pressure = std::max(pressure, outstanding / m.pkt_tracker_entries);
    stall = std::max(stall, clamp01((outstanding - m.pkt_tracker_entries) /
                                    m.pkt_tracker_entries));
  }
  // Sub-threshold occupancy is visible as a diagnostic signal even before
  // the tracker overflows — this is the gradient the guided search climbs.
  f.tracker_pressure = std::min(pressure, 2.0);
  f.tracker_stall_pkts = stall * m.tracker_stall_pkt_equiv *
                         std::min(1.0, p.frac_small_msgs + 0.5);
}

void compute_read_effects(const Subsystem& sys, const Workload& w, Flow& f) {
  if (!f.is_read) return;
  const nic::NicQuirks& q = sys.nicm.q;
  double factor = q.read_resp_pps_factor;
  const bool qp_gate =
      q.read_small_mtu_qp_knee <= 0.0 || f.qps >= q.read_small_mtu_qp_knee;
  const bool batch_gate = q.read_small_mtu_batch_knee <= 0.0 ||
                          w.wqe_batch >= q.read_small_mtu_batch_knee;
  if (w.mtu <= 1024 && qp_gate && batch_gate) {
    factor *= q.read_small_mtu_pps_factor;
  }
  f.read_rx_mult = 1.0 / std::max(factor, 1e-3);
}

void compute_sender_quirks(const Subsystem& sys, const Workload& w,
                           Flow& f) {
  const nic::NicQuirks& q = sys.nicm.q;
  if (q.mtu4k_qp_threshold > 0 && w.mtu >= 4096 && w.bidirectional &&
      w.qp_type == QpType::kRC && !f.is_loop &&
      f.qps >= q.mtu4k_qp_threshold) {
    // Anomaly #14: the TX scheduler loses efficiency at large MTU with very
    // many bidirectional connections.
    const double line_msgs =
        sys.nicm.line_rate_bps / 8.0 / std::max(f.wire_bytes_per_msg, 1.0);
    f.sender_cap_msgs = (1.0 - q.mtu4k_penalty) * line_msgs;
  }
}

// Fills `f`, a default-constructed entry of the flow table.
void make_flow(Flow& f, const Subsystem& sys, const Workload& w,
               const PatternStats& p, int src, int dst, int initiator,
               double qps, bool loop) {
  f.src = src;
  f.dst = dst;
  f.initiator = initiator;
  f.qps = qps;
  f.is_send = (w.opcode == Opcode::kSend);
  f.is_read = (w.opcode == Opcode::kRead);
  f.is_loop = loop;
  // Loopback co-traffic stays in the receiver host's local memory; wire
  // flows use the workload's placements.
  f.src_mem = loop ? w.remote_mem : (src == 0 ? w.local_mem : w.remote_mem);
  f.dst_mem = loop ? w.remote_mem : (dst == 1 ? w.remote_mem : w.local_mem);

  f.bytes_per_msg = p.avg_msg_bytes;
  f.pkts_per_msg = p.avg_pkts_per_msg;
  f.wire_bytes_per_msg =
      p.avg_msg_bytes + p.avg_pkts_per_msg * net::kPerPacketOverheadBytes;
  if (w.qp_type == QpType::kRC) {
    f.acks_per_msg = f.is_read ? 1.0 : 1.0 + p.avg_pkts_per_msg / 8.0;
  }
  f.wqe_bytes = 64.0 + 16.0 * w.sge_per_wqe;
  // The PCIe ordering hazard (root cause #3) needs small and large DMA
  // writes interleaved within one request's scatter-gather list ("mixture
  // of small and large messages in an SG list", anomaly #9).
  if (w.sge_per_wqe >= 2) {
    const double sges_per_wqe = static_cast<double>(w.pattern.size()) /
                                std::max(1.0, p.wqes_per_round);
    f.smalls_per_msg = p.frac_small_sges * sges_per_wqe;
    f.larges_per_msg = p.frac_large_sges * sges_per_wqe;
  }

  compute_rwqe_effects(sys, w, f);
  compute_icm_effects(sys, w, f);
  compute_tracker_effects(sys, w, p, f);
  compute_read_effects(sys, w, f);
  compute_sender_quirks(sys, w, f);
}

// ---- Solver ---------------------------------------------------------------

// The solver's optimistic start: each flow alone at line-rate-equivalent.
double start_rate(const Flow& f) {
  return 1e14 / std::max(f.wire_bytes_per_msg, 1.0);
}

// The first-index most-utilized resource of a scan, if any is above
// 1 + 1e-9 (idx -1: none is).
struct Pick {
  double worst = 1.0 + 1e-9;
  int idx = -1;
};

// Proportionally scale flows until no resource exceeds capacity, starting
// from `rate`, the matching per-resource `demand`, and `pick`, the pass's
// first scan over them.  Returns the index of the most-binding resource (or
// -1 if nothing binds), leaving the solved rates in `rate`; sets
// `*scaled_at_rx_stall` to whether any iteration scaled at an rx_stall
// resource.
//
// `demand` caches per-resource demand between iterations: a scaling step
// touches only the flows of the binding resource, so the demand of any
// resource not sharing a flow with it is unchanged — recomputing would sum
// the exact same doubles.  Skipping that recompute (the demand-unchanged
// early exit) changes no bits; the utilization comparisons see identical
// values either way.
//
// The uniform-scaling stop.  When a step divides EVERY flow's rate by the
// same finite `worst` (< 1e17) and every capacity is positive
// (`uniform_stop_armed`), the next scan cannot pick anything: before the
// step each scanned utilization was at most `worst`, and every demand is a
// sum of non-negative per-message costs times rates, so after it each
// utilization is its old value over `worst` up to a few ulps of rounding —
// at most 1 + ~1e-15, seven orders of magnitude below the 1 + 1e-9
// threshold.  The loop therefore stops there, with the same rates and
// binding resource, instead of recomputing the demands and scanning again.
// A dead (capacity <= 0) resource reads 1e18 whatever the rates are, so a
// system with one keeps the full loop.
int solve(const std::vector<Flow>& flows,
          const std::vector<Resource>& resources, bool include_rx_stall,
          bool uniform_stop_armed, Pick pick, RateArray& rate, double* demand,
          bool* scaled_at_rx_stall, int* uniform_stops) {
  const std::size_t nf = flows.size();
  int binding = -1;
  for (int iter = 0; pick.idx >= 0;) {
    binding = pick.idx;
    const Resource& r = resources[static_cast<std::size_t>(pick.idx)];
    if (r.rx_stall && scaled_at_rx_stall != nullptr) {
      *scaled_at_rx_stall = true;
    }
    const double worst = pick.worst;
    std::array<bool, kMaxFlows> scaled{};
    bool all_scaled = true;
    for (std::size_t i = 0; i < nf; ++i) {
      if (r.coeff[i] > 0.0) {
        rate[i] /= worst;
        scaled[i] = true;
      } else {
        all_scaled = false;
      }
    }
    if (++iter == 200) break;
    if (uniform_stop_armed && all_scaled && worst < 1e17) {
      if (uniform_stops != nullptr) ++*uniform_stops;
      break;
    }
    for (std::size_t ri = 0; ri < resources.size(); ++ri) {
      const Resource& r2 = resources[ri];
      bool touched = false;
      for (std::size_t i = 0; i < nf; ++i) {
        if (scaled[i] && r2.coeff[i] > 0.0) {
          touched = true;
          break;
        }
      }
      if (touched) demand[ri] = r2.demand(flows, rate);
    }
    pick = Pick{};
    for (std::size_t ri = 0; ri < resources.size(); ++ri) {
      const Resource& r2 = resources[ri];
      if (!include_rx_stall && r2.rx_stall) continue;
      const double u = r2.utilization_of(demand[ri]);
      if (u > pick.worst) pick = Pick{u, static_cast<int>(ri)};
    }
  }
  return binding;
}

// The steady solve: the admitted rates of the full system in `rate`, and in
// `offered_rate` what the senders put on the wire before receive-side
// stalls throttle them via PFC (sender-side and wire constraints only, the
// pass that skips the rx_stall resources).  Returns the full pass's binding
// resource.
//
// Both passes start from the same start rates and demands, so they are
// computed once, and the full pass's first scan also picks the sender-side
// pass's first resource (the first-index maximum over the non-rx_stall
// resources).  The full pass runs first; when it never scaled at an
// rx_stall resource, every step's first-index maximum was a resource the
// sender-side pass also sees, so over the same rates and demands that pass
// would pick the same resource at every step and stop at the same point:
// its rates are the full pass's, bit for bit, and it need not run.
//
// `shortcuts`, when given, receives what the shortcuts did (SteadySolve's
// sender_pass_ran, uniform_stop_armed and uniform_stops).
int solve_steady(const std::vector<Flow>& flows,
                 const std::vector<Resource>& resources,
                 RateArray& offered_rate, RateArray& rate,
                 std::vector<double>& demand, SteadySolve* shortcuts) {
  const std::size_t nf = flows.size();
  const std::size_t nr = resources.size();
  for (std::size_t i = 0; i < nf; ++i) rate[i] = start_rate(flows[i]);
  const RateArray start = rate;
  demand.resize(nr);
  std::array<double, kMaxResources> start_demand{};
  bool uniform_stop_armed = true;
  Pick full;
  Pick sender;
  for (std::size_t ri = 0; ri < nr; ++ri) {
    const Resource& r = resources[ri];
    const double d = r.demand(flows, rate);
    demand[ri] = d;
    start_demand[ri] = d;
    uniform_stop_armed = uniform_stop_armed && r.capacity > 0.0;
    const double u = r.utilization_of(d);
    if (u > full.worst) full = Pick{u, static_cast<int>(ri)};
    if (!r.rx_stall && u > sender.worst) sender = Pick{u, static_cast<int>(ri)};
  }
  int* const uniform_stops =
      shortcuts != nullptr ? &shortcuts->uniform_stops : nullptr;
  bool scaled_at_rx_stall = false;
  const int binding =
      solve(flows, resources, /*include_rx_stall=*/true, uniform_stop_armed,
            full, rate, demand.data(), &scaled_at_rx_stall, uniform_stops);
  if (scaled_at_rx_stall) {
    offered_rate = start;
    solve(flows, resources, /*include_rx_stall=*/false, uniform_stop_armed,
          sender, offered_rate, start_demand.data(), nullptr, uniform_stops);
  } else {
    offered_rate = rate;
  }
  if (shortcuts != nullptr) {
    shortcuts->sender_pass_ran = scaled_at_rx_stall;
    shortcuts->uniform_stop_armed = uniform_stop_armed;
  }
  return binding;
}

void reset_result(SimResult& r) {
  r.tx_goodput_bps = 0.0;
  r.rx_goodput_bps = 0.0;
  r.tx_wire_bps = 0.0;
  r.rx_wire_bps = 0.0;
  r.tx_pps = 0.0;
  r.rx_pps = 0.0;
  r.pause_duration_ratio = 0.0;
  r.fabric_pause_ratio = 0.0;
  r.cc_suppressed_ratio = 0.0;
  r.cc_mark_probability = 0.0;
  r.port_pause_ratio.clear();
  r.wire_utilization = 0.0;
  r.pps_utilization = 0.0;
  r.counters = CounterSample{};
  r.samples.clear();
  r.dominant = Bottleneck::kNone;
  r.bottleneck_note.clear();
}

}  // namespace

// ---- CompiledScenario -----------------------------------------------------

CompiledScenario::CompiledScenario(const Subsystem& sys) : sys_(sys) {
  const nic::NicModel& nicm = sys_.nicm;
  // Non-trivial fabrics add switch-port constraints; the paper's identical
  // pair must keep the seed's resource set bit-for-bit.
  scenario_fabric_ = !sys_.fabric.trivial_pair(nicm.line_rate_bps);
  // k identical senders share host B: B-side resources see k times one
  // sender's demand, and the solver yields the per-sender rate.
  fan_in_ = scenario_fabric_ ? std::max(sys_.fabric.fan_in, 1) : 1;
  for (int h = 0; h < 2; ++h) {
    wire_out_cap_[h] = std::min(nicm.line_rate_bps, sys_.fabric.port_rate(h));
  }
  wire_in_cap_[0] = sys_.fabric.port_rate(0);
  wire_in_cap_[1] = fan_in_ * sys_.fabric.receiver_share_bps();
  engine_cap_[0] = nicm.max_pps * 1.0;
  engine_cap_[1] = nicm.max_pps * nicm.q.bidir_pps_capacity;
  pcie_rd_cap_ = pcie::effective_bandwidth_bps(sys_.link,
                                               sys_.link.max_read_request);
  pcie_wr_raw_cap_ = pcie::effective_bandwidth_bps(sys_.link, 4096);
  icm_fetch_cap_ = nicm.icm_fetch_per_s;
  cc_path_in_[0] = std::min(sys_.fabric.port_rate(0), nicm.line_rate_bps);
  cc_path_in_[1] = sys_.fabric.receiver_share_bps();
  fabric_cap_in_[0] = sys_.fabric.port_rate(0);
  fabric_cap_in_[1] = sys_.fabric.receiver_share_bps();
  for (int h = 0; h < 2; ++h) {
    dir_wire_cap_[h] = sys_.dir_wire_cap(h);
  }
  pps_cap_[0] = sys_.pps_cap();
  pps_cap_[1] = sys_.pps_cap() / fan_in_;
  for (int h = 0; h < 2; ++h) {
    const topo::HostTopology& host = sys_.host_of(h);
    dram_path_[h].reserve(static_cast<std::size_t>(host.numa_nodes()));
    for (int n = 0; n < host.numa_nodes(); ++n) {
      dram_path_[h].push_back(host.path_to_nic({topo::MemKind::kDram, n}));
    }
    gpu_path_[h].reserve(host.gpus.size());
    for (std::size_t g = 0; g < host.gpus.size(); ++g) {
      gpu_path_[h].push_back(
          host.path_to_nic({topo::MemKind::kGpu, static_cast<int>(g)}));
    }
  }
}

// ---- DCQCN co-simulation memo ---------------------------------------------

// Exact-input memo in front of nic::solve_cc_steady_state.  The solver is a
// pure function of its arguments, so a solve whose every input matches an
// earlier one bit for bit returns that solve's result, bit for bit.  The
// key is the raw bits of every input, every net::EcnParams field and every
// nic::DcqcnParams field included; nothing about the scenario is assumed,
// which keeps one scratch correct across scenarios.
//
// Direct-mapped, fixed capacity: a colliding solve overwrites the slot.
// Only solves that co-simulate are memoized; pass-through inputs cost less
// than a lookup.  That also keeps the zero-filled fresh slots from ever
// matching: a co-simulating input offers a positive rate, so its first key
// word is never 0.  The table is allocated on the first co-simulating
// solve, so scratches that never arm DCQCN never pay for it.
namespace {

class CcSolveMemo {
 public:
  // Out of line, so EvalCore::run keeps the code shape of the CC-off path
  // (inlined, this body grows run() by ~1.4 KB of mostly cold code).
  [[gnu::noinline]] nic::CcSteadyState solve(
      double offered_bps, double capacity_bps, double line_rate_bps,
      double flows, const net::EcnParams& ecn, const nic::DcqcnParams& prm,
      double pkt_bytes) {
    if (nic::cc_passes_through(offered_bps, capacity_bps, ecn, prm)) {
      return nic::solve_cc_steady_state(offered_bps, capacity_bps,
                                        line_rate_bps, flows, ecn, prm,
                                        pkt_bytes);
    }
    const Key key{
        std::bit_cast<u64>(offered_bps),
        std::bit_cast<u64>(capacity_bps),
        std::bit_cast<u64>(line_rate_bps),
        std::bit_cast<u64>(flows),
        std::bit_cast<u64>(pkt_bytes),
        std::bit_cast<u64>(ecn.kmin_bytes),
        std::bit_cast<u64>(ecn.kmax_bytes),
        std::bit_cast<u64>(ecn.pmax),
        std::bit_cast<u64>(ecn.queue_cap_bytes),
        std::bit_cast<u64>(ecn.xoff_bytes),
        std::bit_cast<u64>(prm.g),
        std::bit_cast<u64>(prm.rate_ai_bps),
        std::bit_cast<u64>(prm.update_interval_s),
        std::bit_cast<u64>(prm.cnp_interval_s),
        std::bit_cast<u64>(prm.min_rate_bps),
        (static_cast<u64>(static_cast<u32>(prm.fast_recovery_rounds)) << 2) |
            (static_cast<u64>(prm.enabled) << 1) |
            static_cast<u64>(ecn.enabled),
    };
    u64 h = 0x9e3779b97f4a7c15ULL;
    for (const u64 word : key) {
      h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    if (!slots_) slots_ = std::make_unique<Slot[]>(kSlots);
    Slot& slot = slots_[static_cast<std::size_t>(h >> (64 - kSlotBits))];
    if (slot.key != key) {
      slot.value = nic::solve_cc_steady_state(offered_bps, capacity_bps,
                                              line_rate_bps, flows, ecn, prm,
                                              pkt_bytes);
      slot.key = key;
    }
    return slot.value;
  }

 private:
  static constexpr int kSlotBits = 10;  // 1024 slots
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  using Key = std::array<u64, 16>;
  struct Slot {
    Key key{};
    nic::CcSteadyState value;
  };
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace

// ---- EvalScratch ----------------------------------------------------------

struct EvalScratch::Impl {
  Impl() {
    flows.reserve(kMaxFlows);
    resources.reserve(kMaxResources);
  }

  std::vector<Flow> flows;
  std::vector<Resource> resources;
  RateArray offered_rate{};
  RateArray rate{};
  std::vector<double> demand;
  // Per-port pause seconds (the accounting net::Fabric does, without
  // re-copying the FabricSpec per probe).
  std::vector<double> pause_s;
  SimResult result;
  CcSolveMemo cc_memo;
};

EvalScratch::EvalScratch() : impl_(std::make_unique<Impl>()) {}
EvalScratch::~EvalScratch() = default;
EvalScratch::EvalScratch(EvalScratch&&) noexcept = default;
EvalScratch& EvalScratch::operator=(EvalScratch&&) noexcept = default;

// ---- Evaluation core ------------------------------------------------------

// Friend of CompiledScenario and EvalScratch; the single implementation both
// public evaluate() overloads funnel through.
struct EvalCore {
  static void build_model(const CompiledScenario& cs, const Workload& w,
                          std::vector<Flow>& flows,
                          std::vector<Resource>& resources);
  static const SimResult& run(const CompiledScenario& cs, const Workload& w,
                              Rng& rng, EvalScratch& scratch,
                              const SimConfig& cfg,
                              const EvalRequest& request);
  static SteadySolve steady(const CompiledScenario& cs, const Workload& w);

  static topo::DmaPath path(const CompiledScenario& cs, int host,
                            const topo::MemPlacement& mem) {
    if (const topo::DmaPath* p = cs.find_path(host, mem)) return *p;
    return cs.sys_.host_of(host).path_to_nic(mem);
  }
  static double path_factor(const CompiledScenario& cs, int host,
                            const topo::MemPlacement& mem) {
    return path(cs, host, mem).bandwidth_factor;
  }
  static bool crosses_socket(const CompiledScenario& cs, int host,
                             const topo::MemPlacement& mem) {
    return path(cs, host, mem).crosses_socket;
  }
  static bool via_root_complex(const CompiledScenario& cs, int host,
                               const topo::MemPlacement& mem) {
    return path(cs, host, mem).via_root_complex;
  }
};

// ---- Resource construction ----------------------------------------------

void EvalCore::build_model(const CompiledScenario& cs, const Workload& w,
                           std::vector<Flow>& flows,
                           std::vector<Resource>& resources) {
  const Subsystem& sys = cs.sys_;
  flows.clear();
  resources.clear();
  const PatternStats p = analyze_pattern(w);

  // Flows and resources are built in place in the scratch's tables, which
  // hold their bounds (kMaxFlows, kMaxResources) from construction on.
  if (w.loopback) {
    // Anomaly-#13 shape: half the connections send over the wire into host
    // 1; the other half are co-located loopback traffic on host 1.
    const double wire_qps = std::max(1.0, std::floor(w.num_qps / 2.0));
    const double loop_qps = std::max(1.0, w.num_qps - wire_qps);
    make_flow(flows.emplace_back(), sys, w, p, 0, 1, 0, wire_qps, false);
    make_flow(flows.emplace_back(), sys, w, p, 1, 1, 1, loop_qps, true);
  } else {
    // READ: the initiator posts WQEs; data flows from the responder.
    const bool read = w.opcode == Opcode::kRead;
    make_flow(flows.emplace_back(), sys, w, p, read ? 1 : 0, read ? 0 : 1, 0,
              w.num_qps, false);
    if (w.bidirectional) {
      // The mirrored flow, posted by host 1.  Every per-flow coefficient
      // reads only qps, the opcode and loop flags, the message coefficients
      // and the workload, never src/dst/initiator or the placements, so the
      // mirror is the first flow with those swapped, bit for bit.
      Flow& back = flows.emplace_back(flows.front());
      std::swap(back.src, back.dst);
      back.initiator = 1;
      std::swap(back.src_mem, back.dst_mem);
    }
  }
  assert(flows.size() <= kMaxFlows);

  const nic::NicModel& nicm = sys.nicm;
  const nic::NicQuirks& q = nicm.q;
  const bool scenario_fabric = cs.scenario_fabric_;
  const double fan_in = cs.fan_in_;

  for (int h = 0; h < 2; ++h) {
    bool tx_here = false;
    bool rx_here = false;
    for (const Flow& f : flows) {
      if (f.src == h) tx_here = true;
      if (f.dst == h) rx_here = true;
    }
    if (!tx_here && !rx_here) continue;
    // Aggregation multiplier for every coefficient charged to this host.
    const double agg = h == 1 ? fan_in : 1.0;

    // ---- Wire egress ----
    {
      Resource& r = resources.emplace_back();
      r.kind = ResKind::kWireOut;
      r.host = h;
      r.tag = Bottleneck::kNone;  // wire-limited is the healthy case
      r.capacity = cs.wire_out_cap_[h];
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (flows[i].src == h && !flows[i].is_loop) {
          r.coeff[i] = agg * flows[i].wire_bytes_per_msg * 8.0;
        }
      }
    }

    // ---- Wire ingress through the switch (scenario fabrics only) ----
    // Into host B this is the per-aggregate share of min(receiver port, ToR
    // uplink); into host A it is A's own port.  Binding here is fabric
    // congestion: the switch backpressures the senders with PFC.
    if (scenario_fabric && rx_here) {
      Resource& r = resources.emplace_back();
      r.kind = ResKind::kWireIn;
      r.host = h;
      r.tag = Bottleneck::kFabricCongestion;
      r.rx_stall = true;
      r.pause_port = h;
      r.capacity = cs.wire_in_cap_[h];
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (flows[i].dst == h && !flows[i].is_loop) {
          r.coeff[i] = agg * flows[i].wire_bytes_per_msg * 8.0;
        }
      }
    }

    // ---- Packet engine (shared TX+RX+ACK processing) ----
    {
      const bool duplex = tx_here && rx_here;
      Resource& r = resources.emplace_back();
      r.kind = ResKind::kEngine;
      r.host = h;
      r.capacity = cs.engine_cap_[duplex ? 1 : 0];
      r.pause_port = h;
      double best_component = 0.0;
      r.tag = duplex ? Bottleneck::kBidirPacketProcessing
                     : Bottleneck::kTxEngine;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow& f = flows[i];
        double c = 0.0;
        if (f.src == h) {
          // Per-WQE parse/gather cost is small relative to a packet slot;
          // the spec pps bound is an end-to-end message-rate bound, so a
          // plain small-message sender must be able to approach it.
          c += f.pkts_per_msg + (0.08 + 0.02 * w.sge_per_wqe);
          c += f.acks_per_msg * q.ack_pkt_cost;  // ACK receive processing
          if (f.is_read) c += 0.2;               // READ request RX
        }
        if (f.dst == h) {
          const double rx_pkts = f.pkts_per_msg * f.read_rx_mult;
          c += rx_pkts;
          c += f.acks_per_msg * q.ack_pkt_cost;  // ACK generation
          if (f.is_read) c += 0.2;               // READ request TX
          c += f.burst_stall_pkts + f.tracker_stall_pkts;
          r.rx_stall = true;
          // Attribute the resource to its strongest abnormal component.
          const double read_extra = f.pkts_per_msg * (f.read_rx_mult - 1.0);
          if (read_extra > best_component) {
            best_component = read_extra;
            r.tag = Bottleneck::kReadPacketProcessing;
          }
          if (f.burst_stall_pkts > best_component) {
            best_component = f.burst_stall_pkts;
            r.tag = Bottleneck::kRwqeBurstMiss;
          }
          if (f.tracker_stall_pkts > best_component) {
            best_component = f.tracker_stall_pkts;
            r.tag = Bottleneck::kRequestTracker;
          }
        }
        r.coeff[i] = agg * c;
      }
    }

    // ---- PCIe read direction (NIC fetches from host memory) ----
    {
      Resource& r = resources.emplace_back();
      r.kind = ResKind::kPcieRd;
      r.host = h;
      r.tag = Bottleneck::kPcieBandwidth;
      r.capacity = cs.pcie_rd_cap_;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow& f = flows[i];
        double bytes = 0.0;
        if (f.src == h) {
          bytes += f.bytes_per_msg / path_factor(cs, h, f.src_mem);
        }
        if (f.initiator == h) {
          bytes += f.wqe_bytes;
        }
        if (f.dst == h && f.is_send) {
          bytes += 64.0 * (f.steady_miss + f.burst_miss);
        }
        r.coeff[i] = agg * bytes * 8.0;
      }
    }

    // ---- PCIe write direction (NIC delivers into host memory) ----
    if (rx_here) {
      // Ordering load ratios are scale-invariant, so they can be computed
      // from per-message counts before rates are known.
      pcie::OrderingLoad load;
      load.bidirectional = tx_here && rx_here;
      double rc_amp = 1.0;
      for (const Flow& f : flows) {
        if (f.dst == h) {
          load.small_write_rate += f.qps > 0 ? f.smalls_per_msg : 0.0;
          load.large_write_rate += f.larges_per_msg;
          if (via_root_complex(cs, h, f.dst_mem)) rc_amp = 2.0;
        }
        if (f.src == h) load.completion_rate += 1.0;
      }
      load.small_write_rate *= rc_amp;
      const double stall = pcie::ordering_stall_fraction(sys.link, load);

      Resource& r = resources.emplace_back();
      r.kind = ResKind::kPcieWr;
      r.host = h;
      r.rx_stall = true;
      r.pause_port = h;
      r.capacity = cs.pcie_wr_raw_cap_ * (1.0 - stall);
      double worst_path = 1.0;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow& f = flows[i];
        double bytes = 0.0;
        if (f.dst == h) {
          const double pf = path_factor(cs, h, f.dst_mem);
          worst_path = std::min(worst_path, pf);
          bytes += f.bytes_per_msg / pf + 64.0;  // data + CQE
        } else if (f.initiator == h) {
          bytes += 64.0;  // completion of egress traffic
        }
        r.coeff[i] = agg * bytes * 8.0;
      }
      if (stall > 0.05) {
        r.tag = Bottleneck::kPcieOrdering;
      } else if (worst_path < 0.8) {
        r.tag = Bottleneck::kHostTopologyPath;
      } else {
        r.tag = Bottleneck::kPcieBandwidth;
      }
    }

    // ---- Cross-socket interconnect ----
    {
      bool any_cross = false;
      for (const Flow& f : flows) {
        if ((f.src == h && crosses_socket(cs, h, f.src_mem)) ||
            (f.dst == h && crosses_socket(cs, h, f.dst_mem))) {
          any_cross = true;
        }
      }
      if (any_cross) {
        const bool bidir_cross = tx_here && rx_here;
        const double quality =
            bidir_cross ? sys.host_of(h).cross_socket_quality : 1.0;
        Resource& in = resources.emplace_back();
        in.kind = ResKind::kXsocketIn;
        in.host = h;
        in.tag = Bottleneck::kHostTopologyPath;
        in.rx_stall = true;
        in.pause_port = h;
        in.capacity = sys.host_of(h).cross_socket_bw_bps * quality;
        Resource& out = resources.emplace_back();
        out.kind = ResKind::kXsocketOut;
        out.host = h;
        out.tag = Bottleneck::kHostTopologyPath;
        out.capacity = sys.host_of(h).cross_socket_bw_bps * quality;
        for (std::size_t i = 0; i < flows.size(); ++i) {
          const Flow& f = flows[i];
          if (f.dst == h && crosses_socket(cs, h, f.dst_mem)) {
            in.coeff[i] = agg * f.bytes_per_msg * 8.0;
          }
          if (f.src == h && crosses_socket(cs, h, f.src_mem)) {
            out.coeff[i] = agg * f.bytes_per_msg * 8.0;
          }
        }
      }
    }

    // ---- NIC-internal bus (loopback incast, root cause #6) ----
    if (w.loopback && h == 1) {
      Resource& r = resources.emplace_back();
      r.kind = ResKind::kInternalBus;
      r.host = h;
      r.tag = Bottleneck::kNicIncast;
      r.rx_stall = true;
      r.pause_port = h;
      r.capacity = nicm.line_rate_bps * 1.4;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (flows[i].dst == h) {
          r.coeff[i] = agg * flows[i].bytes_per_msg * 8.0;
        }
      }
      if (q.loopback_rate_limiter) {
        Resource& lim = resources.emplace_back();
        lim.kind = ResKind::kLoopbackLimiter;
        lim.host = h;
        lim.tag = Bottleneck::kNone;
        // The limiter must leave PCIe-write headroom even on gen3 slots.
        lim.capacity = nicm.line_rate_bps * 0.15;
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (flows[i].is_loop) {
            lim.coeff[i] = agg * flows[i].bytes_per_msg * 8.0;
          }
        }
      }
    }

    // ---- ICM fetch engine (QPC/MTT cache-miss service) ----
    {
      Resource& r = resources.emplace_back();
      r.kind = ResKind::kIcmFetch;
      r.host = h;
      r.capacity = cs.icm_fetch_cap_;
      double qpc_total = 0.0;
      double mtt_total = 0.0;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow& f = flows[i];
        if (f.initiator == h) {
          r.coeff[i] = agg * (f.qpc_miss_exposed + f.mtt_miss_exposed);
          qpc_total += f.qpc_miss_exposed;
          mtt_total += f.mtt_miss_exposed;
        }
      }
      r.tag = qpc_total >= mtt_total ? Bottleneck::kQpcCacheMiss
                                     : Bottleneck::kMttCacheMiss;
    }
  }

  // ---- Per-flow sender quirk caps ----
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].sender_cap_msgs < 1e17) {
      Resource& r = resources.emplace_back();
      r.kind = ResKind::kTxQuirk;
      r.tag = Bottleneck::kMtuSchedulerQuirk;
      r.capacity = flows[i].sender_cap_msgs;
      r.coeff[i] = 1.0;
    }
  }
  assert(resources.size() <= kMaxResources);
}

int sample_epoch(const SimConfig& cfg, int k) {
  const int span = cfg.epochs - cfg.warmup_epochs;
  return cfg.warmup_epochs + (span - 1) * k / (kCounterSamples - 1);
}

double experiment_cost_seconds(const Workload& w) {
  const double qp_cost =
      25.0 * std::min(1.0, w.num_qps * (w.bidirectional ? 2.0 : 1.0) /
                               20000.0);
  const double mr_cost =
      15.0 * std::min(1.0, static_cast<double>(w.total_mrs()) / 200000.0);
  return std::clamp(20.0 + qp_cost + mr_cost, 20.0, 60.0);
}

const SimResult& EvalCore::run(const CompiledScenario& cs, const Workload& w,
                               Rng& rng, EvalScratch& scratch,
                               const SimConfig& cfg,
                               const EvalRequest& request) {
  assert(w.valid());
  const Subsystem& sys = cs.sys_;
  EvalScratch::Impl& s = *scratch.impl_;
  SimResult& out = s.result;
  reset_result(out);
  // The request's shortcuts (perf_model.h).
  const PauseRule* verdict =
      request.verdict_only ? &*request.verdict_only : nullptr;
  const DiagMask diag_read = request.diag_read();

  // One model build serves both solver passes: the uncompiled path built two
  // bit-identical models, one per pass.
  build_model(cs, w, s.flows, s.resources);
  const std::vector<Flow>& flows = s.flows;
  const std::vector<Resource>& resources = s.resources;

  const int binding = solve_steady(flows, resources, s.offered_rate, s.rate,
                                   s.demand, nullptr);
  const RateArray& offered_rate = s.offered_rate;
  RateArray& rate = s.rate;

  // Scenario fabrics lower the achievable bounds and add fabric-attributed
  // pause; the paper's identical pair keeps the seed behaviour bit-for-bit.
  const bool scenario_fabric = cs.scenario_fabric_;

  // ---- Pause-accounting inputs ----
  // Receivers whose binding rx-stall resources reduced the admitted rate
  // below the offered rate accumulate RX-buffer backlog -> PFC.
  double arrival_bps[2] = {0.0, 0.0};
  double drain_bps[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    const int h = f.dst;
    if (f.is_loop) {
      // Loopback traffic competes inside the NIC but does not arrive from
      // the switch port; it only steals drain capacity.
      continue;
    }
    arrival_bps[h] += offered_rate[i] * f.wire_bytes_per_msg * 8.0;
    drain_bps[h] += rate[i] * f.wire_bytes_per_msg * 8.0;
  }

  // ---- Congestion control (DCQCN reaction point vs switch ECN) ----
  // With the fabric marking ECN and the workload's QPs running DCQCN, CNP
  // feedback rate-limits the senders before PFC has to fire: the converged
  // limiter rate replaces the raw offer in every pause account below (the
  // rate-limited demand iterated into the ingress fixed point), and caps
  // what the receive side can deliver.  A limiter that undershoots the
  // path leaves capacity idle — the Noisy Neighbor-style misconfiguration
  // anomaly.  When CC is off this block is skipped entirely, preserving
  // the seed's outputs bit-for-bit.
  bool cc_leaves_capacity_idle = false;
  if (sys.cc_armed() && w.dcqcn) {
    nic::DcqcnParams prm = sys.cc;
    prm.rate_ai_bps = mbps(w.dcqcn_rate_ai_mbps);
    prm.g = w.dcqcn_g;
    for (int h = 0; h < 2; ++h) {
      if (arrival_bps[h] <= 0.0) continue;
      // The ECN queue toward this port drains at the end-to-end admitted
      // rate: the fabric path in, further capped by what the receive side
      // actually drains — a stalled NIC backpressures the switch with
      // PFC, so the switch queue sees NIC-side congestion too.  This is
      // exactly how congestion control can *mask* a subsystem stall.
      const double ecn_drain =
          std::min(cs.cc_path_in_[h],
                   drain_bps[h] > 0.0 ? drain_bps[h] : cs.cc_path_in_[h]);
      double pkts = 0.0;
      double wire_bytes = 0.0;
      double cc_flows = 0.0;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (flows[i].dst != h || flows[i].is_loop) continue;
        pkts += offered_rate[i] * flows[i].pkts_per_msg;
        wire_bytes += offered_rate[i] * flows[i].wire_bytes_per_msg;
        cc_flows += flows[i].qps;
      }
      const double pkt_bytes = pkts > 0.0 ? wire_bytes / pkts : 4096.0;
      const nic::CcSteadyState ss = s.cc_memo.solve(
          arrival_bps[h], ecn_drain, sys.nicm.line_rate_bps, cc_flows,
          sys.fabric.ecn(h), prm, pkt_bytes);
      if (!ss.throttled) continue;
      out.cc_suppressed_ratio = std::max(
          out.cc_suppressed_ratio, 1.0 - ss.rate_bps / arrival_bps[h]);
      out.cc_mark_probability =
          std::max(out.cc_mark_probability, ss.mark_probability);
      arrival_bps[h] = ss.rate_bps;
      if (ss.rate_bps < 0.85 * ecn_drain) cc_leaves_capacity_idle = true;
      // Receivers cannot deliver more than the throttled senders offer.
      if (drain_bps[h] > ss.rate_bps && drain_bps[h] > 0.0) {
        const double scale = ss.rate_bps / drain_bps[h];
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (flows[i].dst == h && !flows[i].is_loop) {
            rate[i] *= scale;
          }
        }
        drain_bps[h] = ss.rate_bps;
      }
    }
  }

  // ---- Primary metrics (steady state, pre-jitter) ----
  double dir_wire[2] = {0.0, 0.0};      // wire bps into host 1 / host 0
  double dir_offered[2] = {0.0, 0.0};
  double dir_goodput[2] = {0.0, 0.0};
  double dir_delivered[2] = {0.0, 0.0};
  double dir_pps[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (f.is_loop) continue;
    const int d = f.dst == 1 ? 0 : 1;  // direction index: 0 = A->B
    dir_wire[d] += rate[i] * f.wire_bytes_per_msg * 8.0;
    dir_offered[d] += offered_rate[i] * f.wire_bytes_per_msg * 8.0;
    dir_goodput[d] += rate[i] * f.bytes_per_msg * 8.0;
    dir_delivered[d] +=
        rate[i] * (1.0 - f.steady_loss) * f.bytes_per_msg * 8.0;
    dir_pps[d] += rate[i] * f.pkts_per_msg;
  }
  out.tx_wire_bps = dir_wire[0];
  out.rx_wire_bps = dir_wire[1] > 0 ? dir_wire[1] : dir_wire[0];
  out.tx_goodput_bps = dir_goodput[0];
  out.rx_goodput_bps = std::max(dir_delivered[0], dir_delivered[1]);
  out.tx_pps = dir_pps[0];
  out.rx_pps = dir_pps[1] > 0 ? dir_pps[1] : dir_pps[0];

  // Utilization against the anomaly-definition upper bounds, using
  // *delivered* traffic (what the application observes).  The wire bound is
  // per direction; the packets/s spec bound is per NIC, so a bidirectional
  // workload counts both directions against one engine.  Scenario fabrics
  // lower the achievable bounds (slower ports, fan-in shares): a workload
  // saturating its fair share of the fabric is healthy, not anomalous.
  double wire_util = 0.0;
  for (int d = 0; d < 2; ++d) {
    if (dir_offered[d] <= 0.0) continue;
    const double deliv_wire =
        dir_wire[d] * (dir_goodput[d] > 0
                           ? dir_delivered[d] / dir_goodput[d]
                           : 1.0);
    // Direction 0 lands in host 1 and vice versa.  A zero-capacity
    // direction (dead port) can deliver nothing and bounds nothing.
    const double cap = cs.dir_wire_cap_[d == 0 ? 1 : 0];
    if (cap <= 0.0) continue;
    wire_util = std::max(wire_util, deliv_wire / cap);
  }
  double pps_util = 0.0;
  for (int h = 0; h < 2; ++h) {
    double host_pps = 0.0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const Flow& f = flows[i];
      if (f.src == h || f.dst == h) {
        host_pps += rate[i] * (1.0 - f.steady_loss) * f.pkts_per_msg;
      }
    }
    // Host B's packet engine is split across the fan-in senders; the fair
    // per-sender bound is 1/k of the spec.
    const double cap = cs.pps_cap_[h];
    pps_util = std::max(pps_util, host_pps / cap);
  }
  out.wire_utilization = wire_util;
  out.pps_utilization = pps_util;

  // ---- Pause accounting ----
  // A port pauses only when the senders genuinely offer more than the
  // receive side can drain: the sender-side solve (sender/wire constraints
  // only) admits measurably more than the full solve.  A resource sitting
  // *at* capacity without overload is balanced, not pausing — this keeps
  // borderline wire-bound workloads from flickering across the monitor's
  // 0.1% pause threshold.
  bool rx_stalled[2] = {false, false};
  for (int h = 0; h < 2; ++h) {
    rx_stalled[h] = arrival_bps[h] > drain_bps[h] * 1.02;
  }

  // Pause duration the fabric alone would produce: what the senders offer
  // against the switch-path capacity, before any NIC-internal receive limit.
  // The monitor treats this share as *expected* congestion, not an anomaly.
  if (scenario_fabric) {
    for (int h = 0; h < 2; ++h) {
      if (arrival_bps[h] > cs.fabric_cap_in_[h] && arrival_bps[h] > 0.0) {
        out.fabric_pause_ratio =
            std::max(out.fabric_pause_ratio,
                     1.0 - cs.fabric_cap_in_[h] / arrival_bps[h]);
      }
    }
  }

  // The human-readable note is diagnostics only; no verdict reads it.
  if (binding >= 0) {
    const Resource& b = resources[static_cast<std::size_t>(binding)];
    if (b.utilization(flows, rate) > 0.999 && b.tag != Bottleneck::kNone) {
      out.dominant = b.tag;
      if (verdict == nullptr) assign_name(out.bottleneck_note, b.kind, b.host);
    }
  }
  // Steady receive-WQE misses dominate when nothing else binds but
  // delivery losses are significant.
  if (out.dominant == Bottleneck::kNone) {
    for (const Flow& f : flows) {
      if (f.steady_loss > 0.05) {
        out.dominant = Bottleneck::kRwqeSteadyMiss;
        if (verdict == nullptr) out.bottleneck_note.assign("rwqe_steady_miss");
        break;
      }
    }
  }
  // A rate limiter that converged well below the achievable path rate is
  // the real binding constraint: the throttled flows leave every hardware
  // resource under capacity, so the binding check above cannot see it.
  if (cc_leaves_capacity_idle) {
    out.dominant = Bottleneck::kCcThrottled;
    if (verdict == nullptr) out.bottleneck_note.assign("dcqcn_rate_limiter");
  }

  // ---- Epoch rollout ----
  // The XOFF/XON hysteresis cycle is O(100us) against O(250ms) epochs, so
  // the pause duty ratio within an epoch equals the ideal-hysteresis steady
  // state: fill from XON to XOFF at (arrival - drain), pause and drain back
  // at `drain`, giving duty = 1 - drain/arrival.  (PfcBuffer integrates the
  // same dynamics explicitly; unit tests cross-check the two.)
  nic::PfcParams pfc_params;
  pfc_params.buffer_bytes = sys.nicm.rx_buffer_bytes;
  bool any_stalled = false;
  for (int h = 0; h < 2; ++h) {
    if (rx_stalled[h] && arrival_bps[h] > 0.0) any_stalled = true;
  }
  // The headline pause_duration_ratio keeps the seed's accounting (worst
  // port per epoch, averaged over post-warmup epochs); scratch-owned
  // per-port accumulators track each port (the arithmetic
  // net::Fabric::record_pause performs).  Every port's observed time is the
  // whole post-warmup window, summed here in the order the rollout visits
  // its epochs.
  double pause_accum = 0.0;
  double pause_time = 0.0;
  for (int e = std::max(cfg.warmup_epochs, 0); e < cfg.epochs; ++e) {
    pause_time += cfg.epoch_dt;
  }
  const int num_ports = sys.fabric.num_ports();
  s.pause_s.assign(static_cast<std::size_t>(num_ports), 0.0);
  // Verdict-only: pause above this is decided (see the rollout).
  const double allowance =
      verdict != nullptr ? verdict->allowance(out.fabric_pause_ratio) : 0.0;

  // Pre-compute steady counter values (per second).
  CounterSample base;
  {
    double tx_good = 0.0;
    double rx_good = 0.0;
    double tx_pps = 0.0;
    double rx_pps = 0.0;
    double rwqe_miss = 0.0;
    double qpc_miss = 0.0;
    double mtt_miss = 0.0;
    double ordering = 0.0;
    double incast = 0.0;
    double ack_load = 0.0;
    double tracker = 0.0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const Flow& f = flows[i];
      tx_good += rate[i] * f.bytes_per_msg * 8.0;
      rx_good += rate[i] * (1.0 - f.steady_loss) * f.bytes_per_msg * 8.0;
      tx_pps += rate[i] * f.pkts_per_msg;
      rx_pps += rate[i] * (1.0 - f.steady_loss) * f.pkts_per_msg;
      rwqe_miss += rate[i] * (f.steady_miss + f.burst_miss);
      qpc_miss += rate[i] * f.qpc_miss_exposed;
      mtt_miss += rate[i] * f.mtt_miss_exposed;
      ack_load += rate[i] * f.acks_per_msg;
      tracker += rate[i] * f.tracker_stall_pkts + f.tracker_pressure * 1e6;
    }
    // Diagnostic counters expose *smooth* load signals — they move before
    // end-to-end performance does (the property §5.1/§7.2 builds on).  The
    // per-resource loop feeds four of them; it runs only if one is read.
    constexpr DiagMask kResourceCounters =
        diag_bit(DiagCounter::kPcieInternalBackpressure) |
        diag_bit(DiagCounter::kPcieOrderingStall) |
        diag_bit(DiagCounter::kNicIncastEvents) |
        diag_bit(DiagCounter::kTxPipelineStall);
    const bool resource_loop = (diag_read & kResourceCounters) != 0;
    double pcie_bp = 0.0;
    double engine_excess = 0.0;
    for (std::size_t ri = 0; resource_loop && ri < resources.size(); ++ri) {
      const Resource& r = resources[ri];
      const double u = r.utilization(flows, rate);
      if (r.kind == ResKind::kPcieRd || r.kind == ResKind::kPcieWr) {
        pcie_bp += u * 1e6 + std::max(0.0, u - 0.8) * 5e6;
      }
      if (r.kind == ResKind::kEngine) {
        engine_excess += u * 1e6 + std::max(0.0, u - 0.8) * 1e7;
      }
      if (r.tag == Bottleneck::kPcieOrdering) {
        ordering += u * 2e6;
      }
      if (r.tag == Bottleneck::kNicIncast) {
        incast += u * 1e6;
      }
      if (r.tag == Bottleneck::kHostTopologyPath) {
        pcie_bp += u * 3e6;
      }
    }
    base.set(PerfCounter::kTxGoodputBps, tx_good);
    base.set(PerfCounter::kRxGoodputBps, rx_good);
    base.set(PerfCounter::kTxPps, tx_pps);
    base.set(PerfCounter::kRxPps, rx_pps);
    base.set(DiagCounter::kRxWqeCacheMiss, rwqe_miss);
    base.set(DiagCounter::kQpcCacheMiss, qpc_miss);
    base.set(DiagCounter::kMttCacheMiss, mtt_miss);
    base.set(DiagCounter::kPcieInternalBackpressure, pcie_bp);
    base.set(DiagCounter::kPcieOrderingStall, ordering);
    base.set(DiagCounter::kNicIncastEvents, incast);
    base.set(DiagCounter::kTxPipelineStall, engine_excess + tracker);
    base.set(DiagCounter::kAckProcessingLoad, ack_load);
  }

  // Every jitter is a pure function of (key, epoch, slot) on a counter
  // stream keyed by ONE draw from the caller's Rng, so the rollout computes
  // only what is read: the four sampled epochs' perf counters and requested
  // diagnostic counters, and the pause duty of post-warmup epochs in which
  // a receiver is stalled.  A verdict-only rollout integrates pause only
  // until it is decided.  Warmup epochs feed no sample and no pause
  // average, so the rollout starts after them.
  const CounterStream jitter(rng.next_u64());
  const auto normal_jitter = [&jitter](int epoch, int slot, double sigma) {
    const u64 index = static_cast<u64>(epoch) * kJitterSlots +
                      static_cast<u64>(slot);
    return std::max(0.2, 1.0 + sigma * jitter.normal(index));
  };

  // §6: the four counter fetches' epochs (4, 10, 16, 23 by default).
  int sampled_epoch[kCounterSamples];
  const int num_samples =
      cfg.epochs > cfg.warmup_epochs ? kCounterSamples : 0;
  for (int k = 0; k < num_samples; ++k) {
    sampled_epoch[k] = sample_epoch(cfg, k);
  }
  int next_sample = 0;

  // Verdict-only: set once pause_accum / pause_time exceeds the allowance.
  // Rounded addition of the remaining non-negative terms cannot lower the
  // sum, nor division by the same positive pause_time the quotient, so the
  // full ratio would exceed it too; the rollout then visits only the
  // sampled epochs that are left.  With no receiver stalled, a post-warmup
  // epoch adds +0.0 to pause_accum and to every pause_s[p], which leaves
  // each exactly as it is, so the rollout visits only the sampled epochs
  // then too.
  bool pause_decided = false;
  for (int e = std::max(cfg.warmup_epochs, 0); e < cfg.epochs; ++e) {
    const bool sampled =
        next_sample < num_samples && sampled_epoch[next_sample] == e;
    const bool pause_read = any_stalled && !pause_decided;
    if (!sampled && !pause_read) continue;
    // The sender jitter scales the perf counters and the stalled arrivals
    // alike.
    const double jit = normal_jitter(e, kSenderSlot, cfg.jitter);

    double worst_pause = 0.0;
    double host_duty[2] = {0.0, 0.0};
    double occupancy = 0.0;
    for (int h = 0; pause_read && h < 2; ++h) {
      if (!rx_stalled[h] || arrival_bps[h] <= 0.0) continue;
      const double arrive = arrival_bps[h] * jit;
      const double drain =
          drain_bps[h] * normal_jitter(e, kDrainSlot + h, cfg.jitter);
      if (arrive <= drain) continue;
      const double duty = 1.0 - drain / arrive;
      host_duty[h] = duty;
      worst_pause = std::max(worst_pause, duty);
      // While pausing, occupancy oscillates between XON and XOFF.
      occupancy = std::max(
          occupancy, 0.5 *
                         (pfc_params.xon_fraction + pfc_params.xoff_fraction) *
                         pfc_params.buffer_bytes);
    }
    if (!pause_decided) {
      pause_accum += worst_pause * cfg.epoch_dt;
      // Every fan-in sender mirrors host A's port by symmetry.
      for (int p = 0; p < num_ports; ++p) {
        s.pause_s[static_cast<std::size_t>(p)] +=
            cfg.epoch_dt * host_duty[p == 1 ? 1 : 0];
      }
      pause_decided = verdict != nullptr && worst_pause > 0.0 &&
                      pause_accum / pause_time > allowance;
    }
    if (!sampled) continue;

    // This epoch's sample: the perf counters and the requested diagnostic
    // counters; the rest stay zero.
    CounterSample& c = out.samples.emplace_back();
    for (int i = 0; i < kNumPerfCounters; ++i) {
      c.perf[static_cast<std::size_t>(i)] =
          base.perf[static_cast<std::size_t>(i)] * jit;
    }
    for (int i = 0; i < kNumDiagCounters; ++i) {
      if (i == static_cast<int>(DiagCounter::kRxBufferOccupancy) ||
          (diag_read & diag_bit(i)) == 0) {
        continue;
      }
      c.diag[static_cast<std::size_t>(i)] =
          base.diag[static_cast<std::size_t>(i)] *
          normal_jitter(e, kDiagSlot + i, cfg.jitter * 2.0);
    }
    if ((diag_read & diag_bit(DiagCounter::kRxBufferOccupancy)) != 0) {
      c.set(DiagCounter::kRxBufferOccupancy, occupancy);
    }
    for (++next_sample;
         next_sample < num_samples && sampled_epoch[next_sample] == e;
         ++next_sample) {
      out.samples.push_back(out.samples.back());
    }
  }

  out.pause_duration_ratio = pause_time > 0 ? pause_accum / pause_time : 0.0;
  out.port_pause_ratio.resize(static_cast<std::size_t>(num_ports));
  for (int p = 0; p < num_ports; ++p) {
    out.port_pause_ratio[static_cast<std::size_t>(p)] =
        pause_time > 0.0 ? s.pause_s[static_cast<std::size_t>(p)] / pause_time
                         : 0.0;
  }
  if (verdict == nullptr) out.counters = CounterSample::average(out.samples);
  return out;
}

SteadySolve EvalCore::steady(const CompiledScenario& cs, const Workload& w) {
  EvalScratch scratch;
  EvalScratch::Impl& s = *scratch.impl_;
  build_model(cs, w, s.flows, s.resources);
  SteadySolve out;
  for (const Flow& f : s.flows) out.start_rate.push_back(start_rate(f));
  for (const Resource& r : s.resources) {
    out.constraints.push_back({r.capacity, r.coeff, r.rx_stall});
  }
  out.binding = solve_steady(s.flows, s.resources, out.offered_rate, out.rate,
                             s.demand, &out);
  return out;
}

SteadySolve steady_solve(const CompiledScenario& scenario, const Workload& w) {
  return EvalCore::steady(scenario, w);
}

SimResult evaluate(const Subsystem& sys, const Workload& w, Rng& rng,
                   const SimConfig& cfg, const EvalRequest& request) {
  const CompiledScenario compiled(sys);
  EvalScratch scratch;
  return EvalCore::run(compiled, w, rng, scratch, cfg, request);
}

const SimResult& evaluate(const CompiledScenario& scenario, const Workload& w,
                          Rng& rng, EvalScratch& scratch, const SimConfig& cfg,
                          const EvalRequest& request) {
  return EvalCore::run(scenario, w, rng, scratch, cfg, request);
}

}  // namespace collie::sim
