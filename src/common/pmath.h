// Portable elementary functions.
//
// glibc's libm rounds log/exp/pow differently across versions and CPUs
// (and may use FMA where the hardware has it), so a result that feeds a
// bit-pinned output — a golden row, a replayed trace, a resumed journal —
// cannot come from it.  These versions are built only from integer bit
// manipulation and IEEE-754 +, -, *, / (each correctly rounded), so they
// return the same bits on every conforming host as long as the compiler
// does not contract a*b+c into an FMA (the build pins -ffp-contract=off).
// They are accurate to a few ulps, not correctly rounded.
#pragma once

namespace collie::pmath {

// Natural logarithm of a positive finite x.  ln(1) == 0 exactly.
double ln(double x);

// Base-2 logarithm of a positive finite x; exact for powers of two.
double log2(double x);

// e^x.  Overflows to +inf above ~709.78, flushes to 0 below ~-745.13.
double exp(double x);

// x^y = exp(y ln x) for a positive finite x; the relative error grows
// with |y ln x| (about that many ulps).  pow(x, 1) == x exactly.
double pow(double x, double y);

}  // namespace collie::pmath
