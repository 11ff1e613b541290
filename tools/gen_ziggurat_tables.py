#!/usr/bin/env python3
"""Print the 256-layer normal ziggurat tables as C++ hexfloat literals.

    python3 tools/gen_ziggurat_tables.py > /tmp/zig.inc

The committed tables in src/common/counter_stream.cc are this script's
output; the generator only runs when the tables are deliberately rebuilt,
never at build time, so the library never evaluates a libm function for
them.  Construction (Marsaglia & Tsang, "The Ziggurat Method for Generating
Random Variables", 2000), for the unnormalized density f(x) = exp(-x^2/2):

    r     = 3.6541528853610088            right edge of the base layer
    v     = r f(r) + sqrt(pi/2) erfc(r/sqrt 2)   area of every layer
    X[0]  = v / f(r)                      pseudo-width of the base layer
    X[1]  = r
    X[i+1] = sqrt(-2 ln(v / X[i] + f(X[i])))     for i = 1..254
    X[256] = 0
    F[i]  = f(X[i]),  F[256] = 1
"""

import math

LAYERS = 256
R = 3.6541528853610088


def f(x):
    return math.exp(-0.5 * x * x)


def tables():
    v = R * f(R) + math.sqrt(math.pi / 2.0) * math.erfc(R / math.sqrt(2.0))
    x = [0.0] * (LAYERS + 1)
    x[0] = v / f(R)
    x[1] = R
    for i in range(1, LAYERS - 1):
        x[i + 1] = math.sqrt(-2.0 * math.log(v / x[i] + f(x[i])))
    x[LAYERS] = 0.0
    fx = [f(xi) for xi in x]
    fx[LAYERS] = 1.0
    return x, fx


def emit(name, values):
    print("const double %s[%d] = {" % (name, len(values)))
    for i in range(0, len(values), 3):
        row = ", ".join(float(v).hex() for v in values[i:i + 3])
        print("    %s," % row)
    print("};")


def main():
    x, fx = tables()
    emit("kX", x)
    emit("kF", fx)


if __name__ == "__main__":
    main()
