#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace collie {
namespace {

u64 splitmix64(u64& x) {
  x += 0x9e3779b97f4a7c15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

u64 rotl64(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(u64 seed) {
  u64 sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

i64 Rng::uniform_int(i64 lo, i64 hi) {
  assert(lo <= hi);
  const u64 span = static_cast<u64>(hi - lo) + 1;
  return lo + static_cast<i64>(next_u64() % span);
}

i64 Rng::log_uniform_int(i64 lo, i64 hi) {
  assert(lo >= 1 && lo <= hi);
  const double llo = std::log(static_cast<double>(lo));
  const double lhi = std::log(static_cast<double>(hi) + 1.0);
  const double v = std::exp(uniform(llo, lhi));
  i64 r = static_cast<i64>(v);
  if (r < lo) r = lo;
  if (r > hi) r = hi;
  return r;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (x < w) return i;
    x -= w;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

Rng Rng::split(u64 stream_index) const {
  // Fold the four state words into one, then push the SplitMix sequence to a
  // per-stream offset before drawing the child's state.  Seeding through
  // SplitMix64 (as in the constructor) decorrelates nearby stream indices.
  u64 sm = s_[0] ^ rotl64(s_[1], 16) ^ rotl64(s_[2], 32) ^ rotl64(s_[3], 48);
  sm += (stream_index + 1) * 0xd1342543de82ef95ULL;
  Rng child(0);
  for (auto& s : child.s_) s = splitmix64(sm);
  return child;
}

}  // namespace collie
