"""Double-word floating point kernels, and the one summation rule.

Every sum over primes (millions of terms, each rounded once) is one
correctly rounded `math.fsum`: it rounds the exact sum once, so neither the
order of its terms nor the split of a range into blocks can change its bits.
Closed forms (~1e-25 target) use double-word arithmetic built on the
error-free transformations two_sum and two_prod: the constant B, and log P_n
through Stirling's series for log Γ, which is then correctly rounded to a
double.

A double-word value is an ordinary tuple (hi, lo) of Python floats with
hi = fl(hi + lo) and |lo| <= ulp(hi)/2, giving roughly 32 significant
digits.  All operations are branch-free in the rounding-critical parts and
therefore bit-reproducible on any IEEE-754 double platform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

DD = tuple[float, float]

# Veltkamp splitter for 53-bit doubles: 2^27 + 1.
_SPLITTER = 134217729.0


def two_sum(a: float, b: float) -> DD:
    """Error-free sum: returns (s, e) with s = fl(a+b) and s + e = a + b."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a: float, b: float) -> DD:
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float) -> DD:
    """Error-free product via Dekker splitting (no FMA assumed)."""
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_add(x: DD, y: DD) -> DD:
    s, e = two_sum(x[0], y[0])
    t, f = two_sum(x[1], y[1])
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    return quick_two_sum(s, e)


def dd_neg(x: DD) -> DD:
    return (-x[0], -x[1])


def dd_sub(x: DD, y: DD) -> DD:
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x: DD, y: DD) -> DD:
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def dd_div(x: DD, y: DD) -> DD:
    # one Newton correction on the double quotient, then a second pass
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


# the least integer that float() rounds up past the largest double
_FLOAT_OVERFLOW_INT = 2**1024 - 2**970


def dd_from_int(v: int) -> DD:
    hi = float(v)
    return hi, float(v - int(hi))


def dd_from_fraction(f: Fraction) -> DD:
    hi = float(f)
    return hi, float(f - Fraction(hi))


def dd_to_float(x: DD) -> float:
    return x[0] + x[1]


DD_ZERO: DD = (0.0, 0.0)
DD_ONE: DD = (1.0, 0.0)

# ln 2, pi, the Euler constant, the Stirling constant ½ log 2π and
# log |Γ(1+i)|² = log(π/sinh π) as double-word constants.  The decimal
# expansions (first 21 decimals) are
#   ln 2            =  0.693147180559945309417...
#   pi              =  3.141592653589793238462...
#   gamma           =  0.577215664901532860606...
#   ½ log 2π        =  0.918938533204672741780...
#   log(π/sinh π)   = -1.301846398603712677770...
LN2_DD: DD = (0.6931471805599453, 2.3190468138462996e-17)
PI_DD: DD = (3.141592653589793, 1.2246467991473532e-16)
GAMMA_DD: DD = (0.5772156649015329, -4.942915152430645e-18)
HALF_LOG_2PI_DD: DD = (0.9189385332046728, -3.8782941580672414e-17)
LOG_PI_OVER_SINH_PI_DD: DD = (-1.3018463986037128, 8.443930502175205e-17)


def dd_pow_int(x: DD, k: int) -> DD:
    """x**k for k >= 0 by binary powering."""
    if k < 0:
        return dd_div(DD_ONE, dd_pow_int(x, -k))
    acc = DD_ONE
    base = x
    while k:
        if k & 1:
            acc = dd_mul(acc, base)
        base = dd_mul(base, base)
        k >>= 1
    return acc


def _dd_odd_series(t: DD, t2: DD) -> DD:
    # t + t·t2/3 + t·t2^2/5 + ...: atanh(t) for t2 = t², atan(t) for
    # t2 = −t².  Callers guarantee |t| <= 0.4, so the series gains at
    # least 0.79 digits per term.
    term = t
    acc = t
    k = 3
    while True:
        term = dd_mul(term, t2)
        inc = dd_div(term, dd_from_int(k))
        acc = dd_add(acc, inc)
        if abs(inc[0]) <= 1e-36 * abs(acc[0]):
            return acc
        k += 2
        if k > 401:  # unreachable for |t| <= 0.4; guards nontermination
            return acc


def dd_atan_small(t: DD) -> DD:
    """atan(t) in double-word precision for |t| <= 0.4."""
    return _dd_odd_series(t, dd_neg(dd_mul(t, t)))


@lru_cache(maxsize=4096)
def dd_log_dyadic(num: int, denom_pow2: int = 0) -> DD:
    """log(num / 2^denom_pow2) in double-word precision.

    num must be a positive integer.  Every logarithm needed by the series
    code has this shape (integers and quarter-integers), which keeps the
    argument reduction exact: write num = m * 2^e with m in [1, 2), then
    log = 2 atanh((m-1)/(m+1)) + (e - denom_pow2) ln 2.  Where num is too
    large to convert to a double, m is taken from the leading 110 bits of
    num, within 2^-109 relative of the exact m.
    """
    if num <= 0:
        raise ValueError("dd_log_dyadic needs a positive integer numerator")
    e = num.bit_length() - 1
    shift = e - 109 if num >= _FLOAT_OVERFLOW_INT else 0
    # m = num / 2^e in [1, 2); both m-1 and m+1 are exact dyadic doubles
    m_num = dd_from_int(num >> shift)
    scale = math.ldexp(1.0, shift - e)
    m = (m_num[0] * scale, m_num[1] * scale)  # exact: power-of-two scaling
    t = dd_div(dd_add(m, (-1.0, 0.0)), dd_add(m, (1.0, 0.0)))
    at = _dd_odd_series(t, dd_mul(t, t))
    out = dd_add(at, at)
    k = e - denom_pow2
    if k:
        out = dd_add(out, dd_mul(dd_from_int(k), LN2_DD))
    return out


def log_of_bigint(v: int) -> float:
    """Natural log of an arbitrarily large positive integer.

    math.log overflows past 2^1024, so shift down to a 53-bit mantissa
    first and add back the exact power-of-two contribution.
    """
    if v <= 0:
        raise ValueError("log_of_bigint needs a positive integer")
    e = max(v.bit_length() - 53, 0)
    return math.log(v >> e) + e * math.log(2.0)
