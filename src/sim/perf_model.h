// Epoch-based fluid performance model of one RDMA experiment.
//
// Given a subsystem and a workload, evaluate() solves a linear resource
// model for the steady-state message rates, then rolls the post-warmup
// measurement epochs with multiplicative jitter and a PFC duty-cycle model
// to produce the monitor's four counter samples (§6) and the pause ratio.
//
// Randomness: one evaluate() advances the caller's Rng by exactly one
// next_u64() — the key of a counter-based jitter stream
// (common/counter_stream.h).  Every jitter is a pure function of (key,
// epoch, slot), so the model draws only what it reads, and every output is
// a pure function of (scenario, workload, key, config).
//
// The model distinguishes three kinds of binding resources, which determine
// the end-to-end *symptom* exactly as in the paper's Table 2:
//   * sender-side limits  -> reduced throughput, no pause frames
//   * receive-side stalls -> packets accumulate in the RX buffer -> PFC
//   * anticipated receive misses -> drops/RNR -> reduced throughput only
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/counters.h"
#include "sim/subsystem.h"
#include "sim/workload.h"
#include "topo/host_topology.h"

namespace collie::sim {

// Ground-truth mechanism tag for the binding bottleneck.  The *search* never
// reads this; it exists for evaluation bookkeeping and tests, mirroring the
// role of vendor confirmation in the paper.
enum class Bottleneck {
  kNone = 0,              // wire-limited or spec-pps-limited: healthy
  kTxEngine,
  kQpcCacheMiss,          // root cause #2
  kMttCacheMiss,          // root cause #2
  kRwqeSteadyMiss,        // root cause #1, anticipated -> drops
  kRwqeBurstMiss,         // root cause #1, pipeline stall -> PFC
  kReadPacketProcessing,  // root cause #4 (anomalies #3, #16)
  kBidirPacketProcessing, // root cause #4 (bidirectional engine share)
  kRequestTracker,        // root cause #4 (anomalies #4, #10, #18)
  kPcieBandwidth,
  kPcieOrdering,          // root cause #3 (anomalies #9, #12)
  kHostTopologyPath,      // root cause #5 (anomalies #11, #12)
  kNicIncast,             // root cause #6 (anomaly #13)
  kMtuSchedulerQuirk,     // anomaly #14
  kFabricCongestion,      // switch port / ToR fan-in bound (scenario fabric)
  kCcThrottled,           // DCQCN rate limiter leaves path capacity idle
  kCount,
};

const char* to_string(Bottleneck b);

struct SimConfig {
  int epochs = 24;
  double epoch_dt = 0.25;   // seconds
  int warmup_epochs = 4;
  double jitter = 0.015;    // multiplicative measurement noise (sigma)
};


// The anomaly monitor's pause condition (§5.2): a measured pause duration
// ratio is anomalous above allowance(fabric_pause_ratio).  Scenario fabrics
// produce *expected* congestion pause (slow ports, ToR fan-in), so pause
// counts only beyond the fabric-explained share plus a relative margin on
// it (jitter allowance).  The margin must stay small: a heavily congested
// fabric explains most of the duty cycle, and a generous multiplier would
// mask the subsystem stall riding on top.  The paper's trivial pair has
// zero fabric pause, so there the allowance is the bare threshold.
//
// core::MonitorConfig holds one; the monitor judges with it and a
// verdict-only evaluation stops integrating pause with it, so the formula
// exists exactly once.
struct PauseRule {
  double threshold = 0.001;  // 0.1% pause duration ratio absorbs setup blips
  double fabric_headroom = 0.02;

  double allowance(double fabric_pause_ratio) const {
    return threshold + fabric_pause_ratio * (1.0 + fabric_headroom);
  }
};

// What the caller of one evaluation reads; the model computes no more (see
// evaluate() below).  The default reads everything.  The search driver
// sets it from the probe's role:
//   * MFS necessity probes read only the monitor's verdict (verdict_only);
//   * SA steps read the phase's counter plus kRxWqeCacheMiss, which the
//     Figure-6 trace keeps; Perf phases and random steps only the latter;
//   * ranking probes and BO steps read all nine diagnostic counters.
struct EvalRequest {
  // Set: only the monitor's verdict under this rule is read.  No
  // diagnostic counter, sample average or note is computed, whatever
  // `diag` says, and pause may stop integrating once it is decided.
  std::optional<PauseRule> verdict_only;
  // Diagnostic counters read (ignored under verdict_only).
  DiagMask diag = kAllDiagCounters;

  static EvalRequest verdict(const PauseRule& rule) { return {rule, 0}; }
  static EvalRequest counters(DiagMask diag) { return {std::nullopt, diag}; }
  // The diagnostic counters the model draws for this request.
  DiagMask diag_read() const { return verdict_only ? DiagMask{0} : diag; }
};

struct SimResult {
  // Steady-state primary metrics.  tx is host A's egress direction; for
  // bidirectional workloads both directions are reported symmetrically.
  double tx_goodput_bps = 0.0;
  double rx_goodput_bps = 0.0;  // delivered (post drop/RNR) at receivers
  double tx_wire_bps = 0.0;
  double rx_wire_bps = 0.0;
  double tx_pps = 0.0;
  double rx_pps = 0.0;
  double pause_duration_ratio = 0.0;  // max over the host-pair switch ports
  // Pause duration the fabric alone explains (overcommitted port rates /
  // ToR fan-in).  Zero on the paper's trivial identical pair; the anomaly
  // monitor discounts this share so scenario fabrics don't drown the search
  // in expected congestion pause.
  double fabric_pause_ratio = 0.0;
  // Demand share the DCQCN reaction point withheld: senders rate-limited
  // below their offered load by ECN feedback.  Zero whenever CC is off.
  // Distinct from pause on purpose — CC-suppressed demand never reaches the
  // wire, so it must not inflate the fabric-congestion pause allowance the
  // monitor grants (fabric_pause_ratio is computed on the *throttled*
  // arrival).
  double cc_suppressed_ratio = 0.0;
  // Converged ECN marking probability at the hottest port (diagnostics).
  double cc_mark_probability = 0.0;
  // Per-port pause accounting across the whole fabric (0 = host A, 1 =
  // host B, 2.. = extra fan-in senders mirroring port 0).
  std::vector<double> port_pause_ratio;

  // Fraction of the anomaly-definition upper bounds actually achieved:
  // wire bits/s against line rate, packets/s against the spec pps cap.
  double wire_utilization = 0.0;
  double pps_utilization = 0.0;

  // The four counter fetches, at post-warmup epochs spread evenly over the
  // run (4, 10, 16, 23 by default), and their average.  Empty / zero when
  // the config has no post-warmup epoch.  Diagnostic counters the request
  // does not read are zero in both (see evaluate() below); a verdict-only
  // evaluation also leaves the average zero.
  std::vector<CounterSample> samples;
  CounterSample counters;

  Bottleneck dominant = Bottleneck::kNone;
  std::string bottleneck_note;  // empty in a verdict-only evaluation
};

// ---- Evaluation hot path --------------------------------------------------
//
// One probe of the search loop is one evaluate() call, so its cost bounds
// campaign throughput.  The hot path splits the work:
//
//   * CompiledScenario precompiles everything that depends only on the
//     (Subsystem x FabricSpec x CcScenario) cell — port-rate tables, fabric
//     ingress capacities, PCIe effective bandwidths, DMA-path lookups per
//     memory placement, ECN/DCQCN parameters — once per cell.  The object is
//     immutable after construction and safe to share across threads.
//   * EvalScratch owns every buffer a single evaluation needs (flow and
//     resource tables, solver demand caches, pause accumulators, the
//     SimResult itself).  Reusing one scratch across probes makes the
//     steady state allocation-free.  A scratch is single-owner state:
//     never share one across threads, and the returned SimResult reference
//     is valid only until the next evaluate() into the same scratch.
//
// The compiled overload is bit-for-bit identical to the uncompiled
// evaluate() below for every (subsystem, workload, rng, config) — the
// golden-row and trajectory tests pin this.

class CompiledScenario {
 public:
  explicit CompiledScenario(const Subsystem& sys);

  const Subsystem& subsystem() const { return sys_; }

 private:
  friend struct EvalCore;

  Subsystem sys_;
  // Scenario-level constants hoisted out of the per-probe path.  Every value
  // is the result of exactly the expression the uncompiled path evaluates,
  // so reusing them cannot move a bit.
  bool scenario_fabric_ = false;
  double fan_in_ = 1.0;
  double wire_out_cap_[2] = {0.0, 0.0};
  double wire_in_cap_[2] = {0.0, 0.0};
  double engine_cap_[2] = {0.0, 0.0};  // [duplex]
  double pcie_rd_cap_ = 0.0;
  double pcie_wr_raw_cap_ = 0.0;  // before the per-workload ordering stall
  double icm_fetch_cap_ = 0.0;
  double cc_path_in_[2] = {0.0, 0.0};
  double fabric_cap_in_[2] = {0.0, 0.0};
  double dir_wire_cap_[2] = {0.0, 0.0};
  double pps_cap_[2] = {0.0, 0.0};  // [host]; host B divides by fan-in
  // Resolved DMA paths per host and placement (kDram by NUMA node, kGpu by
  // ordinal).  Placements outside the table fall back to a live lookup.
  std::vector<topo::DmaPath> dram_path_[2];
  std::vector<topo::DmaPath> gpu_path_[2];

  const topo::DmaPath* find_path(int host, const topo::MemPlacement& mem)
      const {
    const auto& tab =
        mem.kind == topo::MemKind::kGpu ? gpu_path_[host] : dram_path_[host];
    if (mem.index < 0 || static_cast<std::size_t>(mem.index) >= tab.size()) {
      return nullptr;
    }
    return &tab[static_cast<std::size_t>(mem.index)];
  }
};

class EvalScratch {
 public:
  EvalScratch();
  ~EvalScratch();
  EvalScratch(EvalScratch&&) noexcept;
  EvalScratch& operator=(EvalScratch&&) noexcept;
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

 private:
  friend struct EvalCore;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The request (EvalRequest).  The model computes only what the request
// reads, with the same float operations in the same order, so everything
// it does compute is bit-identical to the full evaluation:
//   * a diagnostic counter outside request.diag_read() is zero in every
//     sample and in the average, and draws no jitter (the stream is keyed
//     per epoch and slot, so no other counter moves).  The per-resource
//     base loop runs only for the counters that read it;
//   * under verdict_only the average and the bottleneck note stay zero /
//     empty, the samples keep their perf counters, which the stability
//     check reads, and pause integration stops once pause_accum / T
//     exceeds verdict_only->allowance(fabric_pause_ratio), T being the
//     full post-warmup window.  Every later epoch adds a non-negative term,
//     so the full ratio could only be larger: pause_duration_ratio (and
//     port_pause_ratio) is then a lower bound that is still above the
//     allowance, and exact whenever the full ratio is at or below it.
// Everything else — perf counters, rates, utilizations, fabric_pause_ratio,
// the CC ratios, dominant and the Rng draw — is bit-identical to the full
// evaluation.

// The uncompiled path: compiles the scenario and allocates fresh scratch on
// every call.  Kept (and exercised by tests) as the reference semantics of
// the hot path below.
SimResult evaluate(const Subsystem& sys, const Workload& w, Rng& rng,
                   const SimConfig& cfg = {},
                   const EvalRequest& request = {});

// The hot path: zero heap allocations once `scratch` is warm.  Returns a
// reference into `scratch`, valid until the next evaluate() with it.
const SimResult& evaluate(const CompiledScenario& scenario, const Workload& w,
                          Rng& rng, EvalScratch& scratch,
                          const SimConfig& cfg = {},
                          const EvalRequest& request = {});

// The steady-state linear system evaluate() builds for (scenario, w) and the
// solve it runs on it, for the solver's property tests.  One constraint per
// resource, sum_f coeff[f] * rate_f <= capacity, in build order; the solver
// starts every flow at start_rate and scales flows at the most-utilized
// constraint until none is over capacity.  `rate` is the full system's
// solution and `binding` its last scaled constraint (-1: none); the
// sender-side pass, which skips rx_stall constraints, yields
// `offered_rate` and runs only when the full pass scaled at an rx_stall
// constraint (sender_pass_ran) — otherwise it equals `rate`.  A pass stops
// right after a step that scaled every flow alike (uniform_stops counts
// them) when every capacity is positive (uniform_stop_armed).
struct SteadySolve {
  struct Constraint {
    double capacity = 0.0;
    std::array<double, 4> coeff{};
    bool rx_stall = false;
  };
  std::vector<Constraint> constraints;
  std::vector<double> start_rate;  // per flow
  std::array<double, 4> offered_rate{};
  std::array<double, 4> rate{};
  int binding = -1;
  bool sender_pass_ran = false;
  bool uniform_stop_armed = false;
  int uniform_stops = 0;
};
SteadySolve steady_solve(const CompiledScenario& scenario, const Workload& w);

// Duration one such experiment would take on real hardware: 20-60 s, mostly
// a function of how many QPs and MRs must be set up (§5, §6).  The search
// drivers charge this against their simulated time budget.
double experiment_cost_seconds(const Workload& w);

// The epoch of counter fetch k (0-3) of SimResult::samples: §6's four
// fetches at one-second spacing, evenly across the post-warmup epochs (4,
// 10, 16, 23 for the default 24-epoch run).  The fetch reads that epoch's
// counters at t = (epoch + 1) * epoch_dt.  Only meaningful when
// cfg.epochs > cfg.warmup_epochs (otherwise there are no samples).
int sample_epoch(const SimConfig& cfg, int k);

}  // namespace collie::sim
