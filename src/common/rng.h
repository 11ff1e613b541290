// Deterministic random number generation.
//
// Every stochastic component (search algorithms, measurement jitter) takes an
// explicit Rng so experiments are reproducible from a single seed.  The
// engine is xoshiro256**, seeded through SplitMix64 as its authors recommend.
//
// The draw functions on the hot path (next_u64, uniform) are defined inline.
// The performance model reads exactly one next_u64() per evaluation — the
// key of its counter-based jitter stream (common/counter_stream.h) — and
// the search draws its sampling and annealing decisions from the same
// generator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace collie {

// Complete generator state: the four xoshiro256** words.  Exists so an
// execution backend can record the state a substrate left behind and a
// replay can restore it exactly — the same Rng feeds
// measurement jitter *and* search decisions, so replaying measurements
// without the state would silently diverge the trajectory.
struct RngState {
  u64 s[4] = {0, 0, 0, 0};

  bool operator==(const RngState&) const = default;
};

class Rng {
 public:
  explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL);

  // Uniform over the full 64-bit range.
  u64 next_u64() {
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  i64 uniform_int(i64 lo, i64 hi);

  // True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // Log-uniform integer in [lo, hi]; both must be >= 1.  Used for dimensions
  // like queue-pair counts where the interesting scale is multiplicative.
  i64 log_uniform_int(i64 lo, i64 hi);

  // Pick an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  // Derive an independent stream (for per-seed fan-out in benches).
  // Mutates this generator: two forks from the same parent differ.
  Rng fork();

  // Derive the stream_index-th child stream as a pure function of the
  // current state: unlike fork(), splitting neither advances this generator
  // nor depends on how many children were split before.  A campaign derives
  // one child per (subsystem x mode x seed) cell up front, so per-cell
  // streams are identical no matter how worker threads are later scheduled.
  Rng split(u64 stream_index) const;

  // Export/restore the full state (see RngState).  set_state(state()) is an
  // exact no-op; two generators with equal states draw identical sequences.
  RngState state() const {
    RngState st;
    for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
    return st;
  }
  void set_state(const RngState& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  }

 private:
  static u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  u64 s_[4];
};

}  // namespace collie
