// Counter-based random stream.
//
// Every draw is a pure function of (key, index): bits(index) hashes the
// pair SplitMix64-style, so a consumer can read draw 17 without drawing
// 0..16, skip draws it does not need, and get identical values no matter
// which subset it reads or in which order.  The performance model takes
// one key per evaluation from the caller's Rng and addresses its jitter by
// (epoch, slot) — see sim/perf_model.cc.
//
// normal() is a 256-layer ziggurat (Marsaglia & Tsang 2000) over committed
// hexfloat tables (tools/gen_ziggurat_tables.py).  About 99% of draws take
// the inline fast path: one hash, one table lookup, one multiply, one
// compare.  The rare wedge and tail draws use pmath's libm-free exp/ln, so
// every output is bit-identical across hosts (-ffp-contract=off pinned).
#pragma once

#include <bit>

#include "common/units.h"

namespace collie {

namespace zig {
extern const double kX[257];  // layer right edges, decreasing; kX[256] = 0
extern const double kF[257];  // exp(-kX[i]^2 / 2); kF[256] = 1
}  // namespace zig

class CounterStream {
 public:
  explicit CounterStream(u64 key) : key_(key) {}

  // 64 uniform bits for draw `index`.  `lane` addresses the extra words a
  // rejection step needs (the ziggurat's slow path); plain draws use lane 0.
  u64 bits(u64 index, u64 lane = 0) const {
    u64 z = key_ + (index * kLanes + lane + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Standard normal.  Bits 0-7 of the word pick the layer, bit 8 the sign,
  // bits 11-63 the position within the layer.
  //
  // The sign is applied by moving bit 8 onto the double's sign bit (bit 63)
  // and XOR-ing it in.  IEEE-754 negation is exactly a sign-bit flip (+0.0
  // becomes -0.0), so this is `bit 8 ? -x : x` bit for bit, but without a
  // conditional jump on a random bit, which mispredicts half the time.
  double normal(u64 index) const {
    const u64 b = bits(index);
    const unsigned layer = static_cast<unsigned>(b & 0xff);
    const double x =
        static_cast<double>(b >> 11) * 0x1.0p-53 * zig::kX[layer];
    if (x < zig::kX[layer + 1]) {
      return std::bit_cast<double>(std::bit_cast<u64>(x) ^ ((b & 0x100) << 55));
    }
    return normal_slow(index, b);
  }

 private:
  // Lanes per index: one word for the fast path plus the slow path's
  // retries, which almost never need more than a handful.
  static constexpr u64 kLanes = 256;

  double normal_slow(u64 index, u64 first_word) const;

  u64 key_;
};

}  // namespace collie
