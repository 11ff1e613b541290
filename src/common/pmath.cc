#include "common/pmath.h"

#include <bit>
#include <cstdint>

namespace collie::pmath {
namespace {

// ln(2) split so k * kLn2Hi is exact for |k| < 2^11 (fdlibm's split).
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLog2E = 0x1.71547652b82fep+0;
constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;

// 1/(2k+1), k = 1..11: the atanh series 2s(1 + s^2/3 + s^4/5 + ...).
constexpr double kInvOdd[] = {1.0 / 3,  1.0 / 5,  1.0 / 7,  1.0 / 9,
                              1.0 / 11, 1.0 / 13, 1.0 / 15, 1.0 / 17,
                              1.0 / 19, 1.0 / 21, 1.0 / 23};

// 1/k!, k = 1..13: the Taylor series of e^r.
constexpr double kInvFact[] = {
    1.0,           1.0 / 2,          1.0 / 6,           1.0 / 24,
    1.0 / 120,     1.0 / 720,        1.0 / 5040,        1.0 / 40320,
    1.0 / 362880,  1.0 / 3628800,    1.0 / 39916800,    1.0 / 479001600,
    1.0 / 6227020800.0};

// x = m * 2^k with m in [sqrt(1/2), sqrt(2)), for positive finite x.
double reduce(double x, int* k) {
  std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  int adjust = 0;
  if ((b >> 52) == 0) {  // subnormal: scale into the normal range first
    b = std::bit_cast<std::uint64_t>(x * 0x1p54);
    adjust = -54;
  }
  const int biased = static_cast<int>(b >> 52);
  double m = std::bit_cast<double>((b & 0x000fffffffffffffULL) |
                                   0x3ff0000000000000ULL);
  *k = biased - 1023 + adjust;
  if (m >= kSqrt2) {
    m *= 0.5;
    ++*k;
  }
  return m;
}

// ln(m) for m in [sqrt(1/2), sqrt(2)): 2 atanh(s) with s = (m-1)/(m+1),
// |s| < 0.172, so eleven series terms leave a truncation error < 1e-19.
double ln_reduced(double m) {
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  double p = kInvOdd[10];
  for (int i = 9; i >= 0; --i) p = p * z + kInvOdd[i];
  p = p * z + 1.0;
  return (2.0 * s) * p;
}

// p * 2^n for n in [-1076, 1024].
double scale(double p, int n) {
  if (n > 1023) {
    p *= 0x1p1023;
    n -= 1023;
  } else if (n < -1022) {
    p *= 0x1p-1022;
    n += 1022;
  }
  return p * std::bit_cast<double>(static_cast<std::uint64_t>(n + 1023) << 52);
}

}  // namespace

double ln(double x) {
  int k = 0;
  const double m = reduce(x, &k);
  return k * kLn2Hi + (ln_reduced(m) + k * kLn2Lo);
}

double log2(double x) {
  // A normal power of two, 2^k: reduce() below gives m = 1 and k, and
  // ln_reduced(1) is +0.0, so the general path returns k + 0.0 = k.  Return
  // it directly.  The test reads the raw bits: no mantissa bits, and a
  // biased exponent in [1, 0x7fe] with the sign clear (b >> 52 keeps the
  // sign bit, so a negative input fails it), which leaves zero, subnormals,
  // infinities, NaNs and negative inputs on the general path.
  const std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t biased = b >> 52;
  if ((b << 12) == 0 && biased - 1 < 0x7fe) {
    return static_cast<double>(static_cast<int>(biased) - 1023);
  }
  int k = 0;
  const double m = reduce(x, &k);
  return k + ln_reduced(m) * kLog2E;
}

double exp(double x) {
  if (x > 709.782712893384) return std::bit_cast<double>(0x7ff0000000000000ULL);
  if (x < -745.1332191019412) return 0.0;
  // x = n ln2 + r with |r| <= ln2/2; e^r by its Taylor series to degree 13
  // (truncation < 5e-18 relative).
  const double t = x * kLog2E;
  const int n = static_cast<int>(t < 0.0 ? t - 0.5 : t + 0.5);
  const double r = (x - n * kLn2Hi) - n * kLn2Lo;
  double p = kInvFact[12];
  for (int i = 11; i >= 0; --i) p = p * r + kInvFact[i];
  p = p * r + 1.0;
  return scale(p, n);
}

double pow(double x, double y) {
  if (y == 1.0) return x;
  return exp(y * ln(x));
}

}  // namespace collie::pmath
