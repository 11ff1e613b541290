// The four-dimensional workload search space of §4, built bottom-up from the
// verbs programming model:
//
//   Dimension 1  host topology        (memory placements, loopback)
//   Dimension 2  memory settings      (number of MRs, MR size)
//   Dimension 3  transport settings   (QP type, opcode, #QPs, WQE/SGE
//                                      batching, WQ depths)
//   Dimension 4  message pattern      (request-size vector of length
//                                      PUs x pipeline stages, MTU, direction)
//
// The space provides uniform random sampling, single-dimension mutation (the
// SA step of Algorithm 1), per-feature transforms (used by the MFS
// necessity probes) and restriction (used for anomaly *prevention*, §7.3:
// developers restrict the space to their application's possible workloads).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/subsystem.h"
#include "sim/workload.h"

namespace collie::core {

// Observable workload features; the MFS is a conjunction of per-feature
// conditions over these.
enum class Feature : int {
  // categorical
  kQpType = 0,
  kOpcode,
  kDirection,   // 0 = unidirectional, 1 = bidirectional
  kLoopback,    // 0 = no, 1 = co-located loopback traffic
  kLocalMem,    // placement index into the host's accessible placements
  kRemoteMem,
  kPatternMix,  // 0 all small (<=1KB), 1 mid, 2 all large (>=64KB), 3 mixed
  // numeric
  kNumQps,
  kWqeBatch,
  kSgePerWqe,
  kSendWqDepth,
  kRecvWqDepth,
  kMrsPerQp,
  kMrSize,
  kMtu,
  kMsgSize,  // average message bytes; probes rescale the pattern
  // congestion control (Dimension 5; live only on CC-armed subsystems)
  kDcqcn,     // categorical: 0 = off, 1 = per-QP DCQCN armed
  kCcRateAi,  // numeric: additive-increase step, Mbps
  kCcAlphaG,  // numeric: congestion-estimate EWMA gain
  kCount,
};

inline constexpr int kNumFeatures = static_cast<int>(Feature::kCount);

const char* to_string(Feature f);
bool is_categorical(Feature f);

// Bounds and allowed alternatives; defaults reproduce the paper's bounds
// (20K QPs, 200K MRs, §4).  Restrict fields to model application-specific
// spaces (§7.3).
struct SpaceConfig {
  std::vector<QpType> qp_types{QpType::kRC, QpType::kUC, QpType::kUD};
  std::vector<Opcode> opcodes{Opcode::kSend, Opcode::kWrite, Opcode::kRead};
  bool allow_bidirectional = true;
  bool allow_unidirectional = true;
  bool allow_loopback = true;
  bool allow_gpu = true;
  int min_qps = 1;
  int max_qps = 20000;
  int max_total_mrs = 200000;
  int max_mrs_per_qp = 1024;
  int max_wqe_batch = 128;
  int max_sge = 4;
  int min_wq_depth = 16;
  int max_wq_depth = 1024;
  u64 min_mr_size = 4 * KiB;
  u64 max_mr_size = 4 * MiB;
  std::vector<u32> mtus{256, 512, 1024, 2048, 4096};
  // ---- Dimension 5: congestion control ----
  // The CC features are searched only when the subsystem arms CC
  // (sim::Subsystem::cc_armed) AND this stays true.  A disarmed space pins
  // them to "off", exposes empty probe grids, and consumes no extra RNG
  // draws — non-CC search streams stay bit-for-bit identical to the seed.
  bool allow_dcqcn = true;
  std::vector<double> cc_rate_ai_mbps{1, 10, 40, 200, 1000, 5000};
  std::vector<double> cc_alpha_g{0.001, 0.004, 0.016, 0.25, 1.0};
  // Request sizes are discretized "based on MTU and the burst size" (§4);
  // finer grids are trivially pluggable.
  std::vector<u64> size_grid{64,        128,      256,       512,
                             1 * KiB,   2 * KiB,  4 * KiB,   8 * KiB,
                             16 * KiB,  64 * KiB, 256 * KiB, 1 * MiB,
                             4 * MiB};
};

class SearchSpace {
 public:
  SearchSpace(const sim::Subsystem& sys, SpaceConfig config = {});

  const SpaceConfig& config() const { return config_; }
  // Pattern length n = PUs x pipeline stages (§4, Dimension 4).
  int pattern_length() const { return pattern_len_; }
  // Is the congestion-control dimension live (subsystem armed + allowed)?
  bool cc_searchable() const { return cc_searchable_; }

  Workload random_point(Rng& rng) const;

  // Mutate exactly one search dimension (Algorithm 1 line 4).
  Workload mutate(const Workload& w, Rng& rng) const;

  // Enforce structural validity and space bounds; every sampler/mutator
  // funnels through this.
  void fixup(Workload& w) const;
  bool in_space(const Workload& w) const;

  // ---- Feature access (shared by MFS and the BO encoder) ----
  double numeric_value(const Workload& w, Feature f) const;
  int categorical_value(const Workload& w, Feature f) const;
  // All categorical alternatives for a feature (including the current one);
  // empty for a numeric feature.  Computed once, at construction.
  const std::vector<int>& categorical_alternatives(Feature f) const {
    return alternatives_[static_cast<std::size_t>(f)];
  }
  std::string categorical_name(Feature f, int value) const;
  // Probe grid for a numeric feature, ascending; empty for a categorical
  // one.  Computed once, at construction.
  const std::vector<double>& numeric_grid(Feature f) const {
    return grids_[static_cast<std::size_t>(f)];
  }
  // Return a copy of `w` with the feature forced to the given value
  // (rescaling the pattern for kMsgSize / kPatternMix) and fixed up.  The
  // `out` overloads assign that copy to `out`, reusing its pattern storage.
  Workload with_categorical(const Workload& w, Feature f, int value) const;
  Workload with_numeric(const Workload& w, Feature f, double value) const;
  void with_categorical(const Workload& w, Feature f, int value,
                        Workload& out) const;
  void with_numeric(const Workload& w, Feature f, double value,
                    Workload& out) const;

  // Placements of host A (kLocalMem) and host B (kRemoteMem).  The lists
  // coincide on identical pairs; heterogeneous fabric scenarios give host B
  // its own device set.
  const std::vector<topo::MemPlacement>& placements() const {
    return placements_;
  }
  const std::vector<topo::MemPlacement>& remote_placements() const {
    return remote_placements_;
  }

 private:
  u64 random_size(Rng& rng, u64 cap) const;
  const std::vector<topo::MemPlacement>& placements_of(Feature f) const {
    return f == Feature::kRemoteMem ? remote_placements_ : placements_;
  }
  // Force the feature on `m` in place, then fix it up.
  void set_categorical(Workload& m, Feature f, int value) const;
  void set_numeric(Workload& m, Feature f, double value) const;

  sim::Subsystem sys_;
  SpaceConfig config_;
  std::vector<topo::MemPlacement> placements_;
  std::vector<topo::MemPlacement> remote_placements_;
  // Sampling weights of the two placement lists (DRAM above GPU).
  std::vector<double> placement_weights_;
  std::vector<double> remote_placement_weights_;
  int pattern_len_;
  bool cc_searchable_ = false;
  std::array<std::vector<int>, kNumFeatures> alternatives_;
  std::array<std::vector<double>, kNumFeatures> grids_;
};

}  // namespace collie::core
