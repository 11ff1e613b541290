#include "core/space.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace collie::core {
namespace {

u64 clamp_u64(u64 v, u64 lo, u64 hi) { return std::clamp(v, lo, hi); }

// The categorical alternatives and numeric probe grids SearchSpace
// precomputes per feature.
std::vector<int> alternatives_of(const SpaceConfig& config,
                                 std::size_t num_placements,
                                 bool cc_searchable, Feature f) {
  switch (f) {
    case Feature::kQpType: {
      std::vector<int> out;
      for (QpType t : config.qp_types) out.push_back(static_cast<int>(t));
      return out;
    }
    case Feature::kOpcode: {
      std::vector<int> out;
      for (Opcode o : config.opcodes) out.push_back(static_cast<int>(o));
      return out;
    }
    case Feature::kDirection: {
      std::vector<int> out;
      if (config.allow_unidirectional) out.push_back(0);
      if (config.allow_bidirectional) out.push_back(1);
      return out;
    }
    case Feature::kLoopback:
      return config.allow_loopback ? std::vector<int>{0, 1}
                                    : std::vector<int>{0};
    case Feature::kLocalMem:
    case Feature::kRemoteMem: {
      std::vector<int> out;
      for (std::size_t i = 0; i < num_placements; ++i) {
        out.push_back(static_cast<int>(i));
      }
      return out;
    }
    case Feature::kPatternMix:
      return {0, 1, 2, 3};
    case Feature::kDcqcn:
      return cc_searchable ? std::vector<int>{0, 1} : std::vector<int>{0};
    default:
      return {};
  }
}

std::vector<double> grid_of(const SpaceConfig& config, bool cc_searchable,
                            Feature f) {
  switch (f) {
    case Feature::kNumQps:
      return {1, 8, 32, 128, 512, 2048, 8192, 20000};
    case Feature::kWqeBatch:
      return {1, 4, 16, 32, 64, 128};
    case Feature::kSgePerWqe:
      return {1, 2, 3, 4};
    case Feature::kSendWqDepth:
    case Feature::kRecvWqDepth:
      return {16, 64, 256, 1024};
    case Feature::kMrsPerQp:
      return {1, 8, 64, 256, 1024};
    case Feature::kMrSize:
      return {4.0 * KiB, 64.0 * KiB, 1.0 * MiB, 4.0 * MiB};
    case Feature::kMtu:
      return {256, 512, 1024, 2048, 4096};
    case Feature::kMsgSize:
      return {64,       512,      2.0 * KiB,  8.0 * KiB,
              64.0 * KiB, 256.0 * KiB, 1.0 * MiB};
    case Feature::kCcRateAi:
      // Empty on disarmed spaces: MFS extraction must not spend probe
      // experiments on an inert dimension.
      return cc_searchable ? config.cc_rate_ai_mbps : std::vector<double>{};
    case Feature::kCcAlphaG:
      return cc_searchable ? config.cc_alpha_g : std::vector<double>{};
    default:
      return {};
  }
}

// A uniformly drawn entry of `v` among those `eligible` admits: one
// uniform_int over their count picks the k-th, as indexing a filtered copy
// would.  Null, drawing nothing, when none is eligible.
template <class T, class Pred>
const T* draw_eligible(const std::vector<T>& v, Pred eligible, Rng& rng) {
  const auto n = std::count_if(v.begin(), v.end(), eligible);
  if (n == 0) return nullptr;
  i64 k = rng.uniform_int(0, static_cast<i64>(n) - 1);
  for (const T& x : v) {
    if (eligible(x) && k-- == 0) return &x;
  }
  return nullptr;
}

Opcode draw_opcode(const std::vector<Opcode>& ops, QpType t, Rng& rng) {
  const Opcode* o = draw_eligible(
      ops, [t](Opcode op) { return transport_supports(t, op); }, rng);
  return o != nullptr ? *o : Opcode::kSend;  // fixup's fallback
}

int pattern_mix_class(const Workload& w) {
  const PatternStats p = analyze_pattern(w);
  const bool small = p.frac_small_msgs > 0.0;
  const bool large = p.frac_large_msgs > 0.0;
  if (small && large) return 3;
  if (large) return 2;
  if (small) return 0;
  return 1;
}

}  // namespace

const char* to_string(Feature f) {
  switch (f) {
    case Feature::kQpType:
      return "qp_type";
    case Feature::kOpcode:
      return "opcode";
    case Feature::kDirection:
      return "direction";
    case Feature::kLoopback:
      return "loopback";
    case Feature::kLocalMem:
      return "local_mem";
    case Feature::kRemoteMem:
      return "remote_mem";
    case Feature::kPatternMix:
      return "pattern_mix";
    case Feature::kNumQps:
      return "num_qps";
    case Feature::kWqeBatch:
      return "wqe_batch";
    case Feature::kSgePerWqe:
      return "sge_per_wqe";
    case Feature::kSendWqDepth:
      return "send_wq_depth";
    case Feature::kRecvWqDepth:
      return "recv_wq_depth";
    case Feature::kMrsPerQp:
      return "mrs_per_qp";
    case Feature::kMrSize:
      return "mr_size";
    case Feature::kMtu:
      return "mtu";
    case Feature::kMsgSize:
      return "msg_size";
    case Feature::kDcqcn:
      return "dcqcn";
    case Feature::kCcRateAi:
      return "cc_rate_ai";
    case Feature::kCcAlphaG:
      return "cc_alpha_g";
    case Feature::kCount:
      break;
  }
  return "?";
}

bool is_categorical(Feature f) {
  switch (f) {
    case Feature::kQpType:
    case Feature::kOpcode:
    case Feature::kDirection:
    case Feature::kLoopback:
    case Feature::kLocalMem:
    case Feature::kRemoteMem:
    case Feature::kPatternMix:
    case Feature::kDcqcn:
      return true;
    default:
      return false;
  }
}

SearchSpace::SearchSpace(const sim::Subsystem& sys, SpaceConfig config)
    : sys_(sys), config_(std::move(config)) {
  for (const auto& p : sys_.host.accessible_placements()) {
    if (p.kind == topo::MemKind::kGpu && !config_.allow_gpu) continue;
    placements_.push_back(p);
  }
  // Remote buffers live on host B, which heterogeneous fabric scenarios may
  // give a different device set.
  for (const auto& p : sys_.host_b.accessible_placements()) {
    if (p.kind == topo::MemKind::kGpu && !config_.allow_gpu) continue;
    remote_placements_.push_back(p);
  }
  pattern_len_ = sys_.nicm.pattern_window();
  cc_searchable_ = config_.allow_dcqcn && sys_.cc_armed() &&
                   !config_.cc_rate_ai_mbps.empty() &&
                   !config_.cc_alpha_g.empty();
  for (const auto& p : placements_) {
    placement_weights_.push_back(p.kind == topo::MemKind::kDram ? 3.0 : 1.0);
  }
  for (const auto& p : remote_placements_) {
    remote_placement_weights_.push_back(
        p.kind == topo::MemKind::kDram ? 3.0 : 1.0);
  }
  for (int fi = 0; fi < kNumFeatures; ++fi) {
    const Feature f = static_cast<Feature>(fi);
    const auto i = static_cast<std::size_t>(fi);
    if (is_categorical(f)) {
      alternatives_[i] = alternatives_of(
          config_, placements_of(f).size(), cc_searchable_, f);
    } else {
      grids_[i] = grid_of(config_, cc_searchable_, f);
      std::sort(grids_[i].begin(), grids_[i].end());
    }
  }
}

u64 SearchSpace::random_size(Rng& rng, u64 cap) const {
  const u64* s = draw_eligible(
      config_.size_grid, [cap](u64 size) { return size <= cap; }, rng);
  return s != nullptr ? *s : cap;
}

Workload SearchSpace::random_point(Rng& rng) const {
  // The defaults with an empty pattern: copying it allocates nothing, so
  // the pattern sized below is the one allocation.
  static const Workload kNoPattern = [] {
    Workload d;
    d.pattern.clear();
    return d;
  }();
  Workload w = kNoPattern;
  w.pattern.resize(static_cast<std::size_t>(pattern_len_));
  // Dimension 3: transport.
  w.qp_type = config_.qp_types[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<i64>(config_.qp_types.size()) - 1))];
  w.opcode = draw_opcode(config_.opcodes, w.qp_type, rng);
  w.num_qps = static_cast<int>(
      rng.log_uniform_int(config_.min_qps, config_.max_qps));
  w.wqe_batch = 1 << rng.uniform_int(0, 7);  // 1..128
  w.sge_per_wqe = static_cast<int>(rng.uniform_int(1, config_.max_sge));
  w.send_wq_depth = 16 << rng.uniform_int(0, 6);  // 16..1024
  w.recv_wq_depth = 16 << rng.uniform_int(0, 6);

  // Dimension 2: memory settings.
  w.mrs_per_qp =
      static_cast<int>(rng.log_uniform_int(1, config_.max_mrs_per_qp));
  w.mr_size = random_size(rng, config_.max_mr_size);
  w.mr_size = std::max(w.mr_size, config_.min_mr_size);

  // Dimension 1: host topology.  DRAM placements are weighted above GPU
  // ones: production traffic is mostly host memory.
  w.local_mem = placements_[rng.weighted_index(placement_weights_)];
  w.remote_mem =
      remote_placements_[rng.weighted_index(remote_placement_weights_)];
  w.loopback = config_.allow_loopback && rng.bernoulli(0.08);

  // Dimension 4: message pattern.
  w.mtu = config_.mtus[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<i64>(config_.mtus.size()) - 1))];
  for (u64& s : w.pattern) s = random_size(rng, config_.max_mr_size);
  if (config_.allow_bidirectional &&
      (!config_.allow_unidirectional || rng.bernoulli(0.4))) {
    w.bidirectional = true;
  }

  // Dimension 5: congestion control.  Disarmed spaces draw nothing here, so
  // their RNG streams match the seed's exactly.
  if (cc_searchable_) {
    w.dcqcn = rng.bernoulli(0.5);
    w.dcqcn_rate_ai_mbps = config_.cc_rate_ai_mbps[static_cast<std::size_t>(
        rng.uniform_int(0,
                        static_cast<i64>(config_.cc_rate_ai_mbps.size()) - 1))];
    w.dcqcn_g = config_.cc_alpha_g[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<i64>(config_.cc_alpha_g.size()) - 1))];
  }
  fixup(w);
  return w;
}

Workload SearchSpace::mutate(const Workload& w, Rng& rng) const {
  Workload m = w;
  // Pick one of the search dimensions (four from the paper, plus the CC
  // dimension on CC-armed subsystems), then one factor inside it.
  const int dim =
      static_cast<int>(rng.uniform_int(0, cc_searchable_ ? 4 : 3));
  auto step_pow2 = [&](int v, int lo, int hi) {
    const int dir = rng.bernoulli(0.5) ? 2 : -2;
    int nv = dir > 0 ? v * 2 : v / 2;
    return std::clamp(nv, lo, hi);
  };
  switch (dim) {
    case 0: {  // host topology
      const int which = static_cast<int>(rng.uniform_int(0, 2));
      if (which == 0 && !placements_.empty()) {
        m.local_mem = placements_[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<i64>(placements_.size()) - 1))];
      } else if (which == 1 && !remote_placements_.empty()) {
        m.remote_mem =
            remote_placements_[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<i64>(remote_placements_.size()) - 1))];
      } else if (config_.allow_loopback) {
        m.loopback = !m.loopback;
      }
      break;
    }
    case 1: {  // memory settings
      if (rng.bernoulli(0.5)) {
        const double factor = rng.bernoulli(0.5) ? 4.0 : 0.25;
        m.mrs_per_qp = std::clamp(
            static_cast<int>(std::max(1.0, m.mrs_per_qp * factor)), 1,
            config_.max_mrs_per_qp);
      } else {
        m.mr_size = rng.bernoulli(0.5)
                        ? clamp_u64(m.mr_size * 4, config_.min_mr_size,
                                    config_.max_mr_size)
                        : clamp_u64(m.mr_size / 4, config_.min_mr_size,
                                    config_.max_mr_size);
      }
      break;
    }
    case 2: {  // transport settings
      const int which = static_cast<int>(rng.uniform_int(0, 5));
      switch (which) {
        case 0:
          m.qp_type = config_.qp_types[static_cast<std::size_t>(
              rng.uniform_int(0,
                              static_cast<i64>(config_.qp_types.size()) - 1))];
          break;
        case 1:
          m.opcode = draw_opcode(config_.opcodes, m.qp_type, rng);
          break;
        case 2: {
          const double factor = rng.bernoulli(0.5) ? 2.0 : 0.5;
          m.num_qps = std::clamp(
              static_cast<int>(std::max(1.0, m.num_qps * factor)),
              config_.min_qps, config_.max_qps);
          break;
        }
        case 3:
          m.wqe_batch = step_pow2(m.wqe_batch, 1, config_.max_wqe_batch);
          break;
        case 4:
          m.sge_per_wqe = std::clamp(
              m.sge_per_wqe + (rng.bernoulli(0.5) ? 1 : -1), 1,
              config_.max_sge);
          break;
        default:
          if (rng.bernoulli(0.5)) {
            m.send_wq_depth = step_pow2(m.send_wq_depth,
                                        config_.min_wq_depth,
                                        config_.max_wq_depth);
          } else {
            m.recv_wq_depth = step_pow2(m.recv_wq_depth,
                                        config_.min_wq_depth,
                                        config_.max_wq_depth);
          }
          break;
      }
      break;
    }
    case 3: {  // message pattern
      const int which = static_cast<int>(rng.uniform_int(0, 2));
      if (which == 0) {
        // Re-draw one request size.
        const std::size_t idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<i64>(m.pattern.size()) - 1));
        m.pattern[idx] = random_size(rng, config_.max_mr_size);
      } else if (which == 1) {
        m.mtu = config_.mtus[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<i64>(config_.mtus.size()) - 1))];
      } else if (config_.allow_bidirectional && config_.allow_unidirectional) {
        m.bidirectional = !m.bidirectional;
      }
      break;
    }
    default: {  // congestion control (reachable only when cc_searchable_)
      const int which = static_cast<int>(rng.uniform_int(0, 2));
      auto step_grid = [&rng](double v, const std::vector<double>& grid) {
        // Move one grid notch up or down from the nearest entry.
        std::size_t idx = 0;
        for (std::size_t i = 0; i < grid.size(); ++i) {
          if (std::fabs(grid[i] - v) < std::fabs(grid[idx] - v)) idx = i;
        }
        if (rng.bernoulli(0.5)) {
          idx = std::min(idx + 1, grid.size() - 1);
        } else if (idx > 0) {
          --idx;
        }
        return grid[idx];
      };
      if (which == 0) {
        m.dcqcn = !m.dcqcn;
      } else if (which == 1) {
        m.dcqcn_rate_ai_mbps =
            step_grid(m.dcqcn_rate_ai_mbps, config_.cc_rate_ai_mbps);
      } else {
        m.dcqcn_g = step_grid(m.dcqcn_g, config_.cc_alpha_g);
      }
      break;
    }
  }
  fixup(m);
  return m;
}

void SearchSpace::fixup(Workload& w) const {
  if (!transport_supports(w.qp_type, w.opcode)) {
    w.opcode = Opcode::kSend;  // supported by every transport
  }
  if (w.loopback && w.opcode == Opcode::kRead) w.opcode = Opcode::kWrite;
  if (w.loopback && !config_.allow_loopback) w.loopback = false;
  if (w.bidirectional && !config_.allow_bidirectional) {
    w.bidirectional = false;
  }
  if (!w.bidirectional && !config_.allow_unidirectional) {
    w.bidirectional = true;
  }
  w.num_qps = std::clamp(w.num_qps, config_.min_qps, config_.max_qps);
  w.mrs_per_qp = std::clamp(w.mrs_per_qp, 1, config_.max_mrs_per_qp);
  while (w.total_mrs() > config_.max_total_mrs && w.mrs_per_qp > 1) {
    w.mrs_per_qp = std::max(1, config_.max_total_mrs / w.num_qps);
  }
  w.sge_per_wqe = std::clamp(w.sge_per_wqe, 1, config_.max_sge);
  w.send_wq_depth =
      std::clamp(w.send_wq_depth, config_.min_wq_depth, config_.max_wq_depth);
  w.recv_wq_depth =
      std::clamp(w.recv_wq_depth, config_.min_wq_depth, config_.max_wq_depth);
  w.wqe_batch = std::clamp(w.wqe_batch, 1,
                           std::min(config_.max_wqe_batch, w.send_wq_depth));
  w.mr_size = clamp_u64(w.mr_size, config_.min_mr_size, config_.max_mr_size);
  if (w.pattern.empty()) w.pattern.assign(1, 4 * KiB);
  // SGEs must fit their MR.
  for (u64& s : w.pattern) s = clamp_u64(s, 1, w.mr_size);
  // UD: one datagram per message, message <= MTU.
  if (w.qp_type == QpType::kUD) {
    const u64 per_sge =
        std::max<u64>(1, w.mtu / static_cast<u32>(w.sge_per_wqe));
    for (u64& s : w.pattern) s = std::min(s, per_sge);
  }
  if (!sys_.host.placement_valid(w.local_mem)) w.local_mem = {};
  if (!sys_.host_b.placement_valid(w.remote_mem)) w.remote_mem = {};
  if (!config_.allow_gpu) {
    if (w.local_mem.kind == topo::MemKind::kGpu) w.local_mem = {};
    if (w.remote_mem.kind == topo::MemKind::kGpu) w.remote_mem = {};
  }
  if (cc_searchable_) {
    w.dcqcn_rate_ai_mbps =
        std::clamp(w.dcqcn_rate_ai_mbps, config_.cc_rate_ai_mbps.front(),
                   config_.cc_rate_ai_mbps.back());
    w.dcqcn_g = std::clamp(w.dcqcn_g, config_.cc_alpha_g.front(),
                           config_.cc_alpha_g.back());
  } else {
    // Disarmed spaces pin the CC dimension to the workload defaults.
    static const Workload kDefaults;
    w.dcqcn = false;
    w.dcqcn_rate_ai_mbps = kDefaults.dcqcn_rate_ai_mbps;
    w.dcqcn_g = kDefaults.dcqcn_g;
  }
}

bool SearchSpace::in_space(const Workload& w) const {
  Workload fixed = w;
  fixup(fixed);
  return fixed == w;
}

double SearchSpace::numeric_value(const Workload& w, Feature f) const {
  switch (f) {
    case Feature::kNumQps:
      return w.num_qps;
    case Feature::kWqeBatch:
      return w.wqe_batch;
    case Feature::kSgePerWqe:
      return w.sge_per_wqe;
    case Feature::kSendWqDepth:
      return w.send_wq_depth;
    case Feature::kRecvWqDepth:
      return w.recv_wq_depth;
    case Feature::kMrsPerQp:
      return w.mrs_per_qp;
    case Feature::kMrSize:
      return static_cast<double>(w.mr_size);
    case Feature::kMtu:
      return w.mtu;
    case Feature::kMsgSize:
      return analyze_pattern(w).avg_msg_bytes;
    case Feature::kCcRateAi:
      return w.dcqcn_rate_ai_mbps;
    case Feature::kCcAlphaG:
      return w.dcqcn_g;
    default:
      assert(false && "not a numeric feature");
      return 0.0;
  }
}

int SearchSpace::categorical_value(const Workload& w, Feature f) const {
  switch (f) {
    case Feature::kQpType:
      return static_cast<int>(w.qp_type);
    case Feature::kOpcode:
      return static_cast<int>(w.opcode);
    case Feature::kDirection:
      return w.bidirectional ? 1 : 0;
    case Feature::kLoopback:
      return w.loopback ? 1 : 0;
    case Feature::kLocalMem:
    case Feature::kRemoteMem: {
      const topo::MemPlacement p =
          f == Feature::kLocalMem ? w.local_mem : w.remote_mem;
      const auto& list = placements_of(f);
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] == p) return static_cast<int>(i);
      }
      return 0;
    }
    case Feature::kPatternMix:
      return pattern_mix_class(w);
    case Feature::kDcqcn:
      return w.dcqcn ? 1 : 0;
    default:
      assert(false && "not a categorical feature");
      return 0;
  }
}

std::string SearchSpace::categorical_name(Feature f, int value) const {
  switch (f) {
    case Feature::kQpType:
      return to_string(static_cast<QpType>(value));
    case Feature::kOpcode:
      return to_string(static_cast<Opcode>(value));
    case Feature::kDirection:
      return value ? "bidirectional" : "unidirectional";
    case Feature::kLoopback:
      return value ? "loopback" : "no-loopback";
    case Feature::kLocalMem:
    case Feature::kRemoteMem:
      if (value >= 0 &&
          value < static_cast<int>(placements_of(f).size())) {
        return topo::to_string(
            placements_of(f)[static_cast<std::size_t>(value)]);
      }
      return "?";
    case Feature::kPatternMix:
      switch (value) {
        case 0:
          return "all<=1KB";
        case 1:
          return "mid-sized";
        case 2:
          return "all>=64KB";
        default:
          return "mix small+large";
      }
    case Feature::kDcqcn:
      return value ? "dcqcn-on" : "dcqcn-off";
    default:
      return "?";
  }
}

Workload SearchSpace::with_categorical(const Workload& w, Feature f,
                                       int value) const {
  Workload m = w;
  set_categorical(m, f, value);
  return m;
}

Workload SearchSpace::with_numeric(const Workload& w, Feature f,
                                   double value) const {
  Workload m = w;
  set_numeric(m, f, value);
  return m;
}

void SearchSpace::with_categorical(const Workload& w, Feature f, int value,
                                  Workload& out) const {
  out = w;
  set_categorical(out, f, value);
}

void SearchSpace::with_numeric(const Workload& w, Feature f, double value,
                              Workload& out) const {
  out = w;
  set_numeric(out, f, value);
}

void SearchSpace::set_categorical(Workload& m, Feature f, int value) const {
  switch (f) {
    case Feature::kQpType:
      m.qp_type = static_cast<QpType>(value);
      break;
    case Feature::kOpcode:
      m.opcode = static_cast<Opcode>(value);
      break;
    case Feature::kDirection:
      m.bidirectional = value != 0;
      break;
    case Feature::kLoopback:
      m.loopback = value != 0;
      break;
    case Feature::kLocalMem:
      m.local_mem = placements_.at(static_cast<std::size_t>(value));
      break;
    case Feature::kRemoteMem:
      m.remote_mem = remote_placements_.at(static_cast<std::size_t>(value));
      break;
    case Feature::kPatternMix: {
      // Rewrite the pattern into the requested mix class, preserving length.
      const std::size_t n = m.pattern.size();
      for (std::size_t i = 0; i < n; ++i) {
        switch (value) {
          case 0:
            m.pattern[i] = 512;
            break;
          case 1:
            m.pattern[i] = 8 * KiB;
            break;
          case 2:
            m.pattern[i] = 64 * KiB;
            break;
          default:
            m.pattern[i] = (i % 2 == 0) ? 64 * KiB : 512;
            break;
        }
      }
      break;
    }
    case Feature::kDcqcn:
      m.dcqcn = value != 0;
      break;
    default:
      assert(false && "not a categorical feature");
  }
  fixup(m);
}

void SearchSpace::set_numeric(Workload& m, Feature f, double value) const {
  switch (f) {
    case Feature::kNumQps:
      m.num_qps = static_cast<int>(value);
      break;
    case Feature::kWqeBatch:
      m.wqe_batch = static_cast<int>(value);
      break;
    case Feature::kSgePerWqe:
      m.sge_per_wqe = static_cast<int>(value);
      break;
    case Feature::kSendWqDepth:
      m.send_wq_depth = static_cast<int>(value);
      break;
    case Feature::kRecvWqDepth:
      m.recv_wq_depth = static_cast<int>(value);
      break;
    case Feature::kMrsPerQp:
      m.mrs_per_qp = static_cast<int>(value);
      break;
    case Feature::kMrSize:
      m.mr_size = static_cast<u64>(value);
      break;
    case Feature::kMtu:
      m.mtu = static_cast<u32>(value);
      break;
    case Feature::kMsgSize: {
      // Rescale the pattern so the average message size hits `value` while
      // preserving the relative mix.
      const PatternStats p = analyze_pattern(m);
      if (p.avg_msg_bytes > 0.0) {
        const double scale = value / p.avg_msg_bytes;
        for (u64& s : m.pattern) {
          s = static_cast<u64>(std::max(1.0, std::round(s * scale)));
        }
      }
      break;
    }
    case Feature::kCcRateAi:
      m.dcqcn_rate_ai_mbps = value;
      break;
    case Feature::kCcAlphaG:
      m.dcqcn_g = value;
      break;
    default:
      assert(false && "not a numeric feature");
  }
  fixup(m);
}

}  // namespace collie::core
