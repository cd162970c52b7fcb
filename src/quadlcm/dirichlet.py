"""Zeta and mod-4 L-series values and s-derivatives at integer arguments.

Both series are evaluated by Euler-Maclaurin acceleration in double-word
arithmetic: a short main sum, the integral and half-term boundary pieces,
and correction terms B_2j/(2j)! (s)_{2j-1} M^{-s-2j+1}.  Every coefficient
in that scaffolding is an exact rational at integer s (Bernoulli numbers,
rising factorials, harmonic-like h_j sums), so the only rounding comes from
the double-word powers and logarithms of integers.

The L-series is summed in paired-difference form,

    L(s) = sum_k [(4k+1)^-s - (4k+3)^-s] + tail differences,

never as 4^-s [zeta(s,1/4) - zeta(s,3/4)]: at s = 64 the Hurwitz values
are ~4^64 while L is ~1, and that subtraction would burn the entire
double-word mantissa.  In paired form each difference cancels at most a
few bits.  s = 1 (conditionally convergent, value pi/4) is handled by the
exact limit of the boundary term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivergentSeriesError, InvalidRangeError
from .summation import (
    DD,
    DD_ONE,
    dd_add,
    dd_div,
    dd_from_fraction,
    dd_from_int,
    dd_log_dyadic,
    dd_mul,
    dd_neg,
    dd_pow_int,
    dd_sub,
    dd_to_float,
)

# Main-sum length and correction order. At M=40 the first omitted
# correction is ~1e-50 for every s >= 1, far below double-word resolution.
_EM_TERMS = 40
_EM_ORDER = 20


@dataclass(frozen=True)
class SeriesValue:
    """A series value, its s-derivative, and the truncation envelope
    (magnitude of the first omitted correction term)."""

    value: DD
    derivative: DD
    tail_bound: float


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """B_m (B_1 = -1/2 convention), by the defining recurrence."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(m):
        acc += math.comb(m + 1, k) * _bernoulli(k)
    return -acc / (m + 1)


@lru_cache(maxsize=None)
def _rising(s: int, count: int) -> int:
    """s (s+1) ... (s+count-1), exact."""
    out = 1
    for i in range(count):
        out *= s + i
    return out


@lru_cache(maxsize=None)
def _em_coeff(s: int, j: int) -> Fraction:
    """c_j(s) = B_2j / (2j)! * (s)_{2j-1}, the j-th correction weight."""
    return _bernoulli(2 * j) / math.factorial(2 * j) * _rising(s, 2 * j - 1)


@lru_cache(maxsize=None)
def _em_coeff_logsum(s: int, j: int) -> Fraction:
    """h_j(s) = d/ds log (s)_{2j-1} = sum of 1/(s+i) for i < 2j-1, by the
    recurrence h_1 = 1/s, h_j = h_{j-1} + 1/(s+2j-3) + 1/(s+2j-2) over the
    cached h_{j-1}: two exact Fraction additions per (s, j)."""
    if j == 1:
        return Fraction(1, s)
    step = Fraction(1, s + 2 * j - 3) + Fraction(1, s + 2 * j - 2)
    return _em_coeff_logsum(s, j - 1) + step


@lru_cache(maxsize=None)
def _inv(m: int) -> DD:
    """1/m in double-word, cached: the series use about 100 distinct m."""
    return dd_div(DD_ONE, dd_from_int(m))


def _inv_pow(m: int, e: int) -> DD:
    """m^-e for integers m >= 2, e >= 1."""
    return dd_pow_int(_inv(m), e)


@lru_cache(maxsize=None)
def zeta_em(s: int) -> SeriesValue:
    """zeta(s) and zeta'(s) for integer s >= 2."""
    if s < 2:
        raise DivergentSeriesError("zeta(s) needs s >= 2 (pole at s = 1)")
    M = _EM_TERMS
    val = DD_ONE  # k = 1 term
    der: DD = (0.0, 0.0)  # log 1 = 0
    for k in range(2, M):
        kp = _inv_pow(k, s)
        val = dd_add(val, kp)
        der = dd_sub(der, dd_mul(dd_log_dyadic(k), kp))
    logm = dd_log_dyadic(M)
    # integral piece M^(1-s)/(s-1)
    m1s = _inv_pow(M, s - 1)
    sm1 = dd_from_int(s - 1)
    piece = dd_div(m1s, sm1)
    val = dd_add(val, piece)
    der = dd_sub(der, dd_mul(piece, logm))
    der = dd_sub(der, dd_div(piece, sm1))
    # half-term M^-s / 2
    ms = _inv_pow(M, s)
    half = (0.5 * ms[0], 0.5 * ms[1])  # exact scaling by 2^-1
    val = dd_add(val, half)
    der = dd_sub(der, dd_mul(half, logm))
    # corrections
    power = _inv_pow(M, s + 1)
    inv_m2 = _inv_pow(M, 2)
    for j in range(1, _EM_ORDER + 1):
        term = dd_mul(dd_from_fraction(_em_coeff(s, j)), power)
        val = dd_add(val, term)
        hj = dd_from_fraction(_em_coeff_logsum(s, j))
        der = dd_add(der, dd_mul(term, dd_sub(hj, logm)))
        power = dd_mul(power, inv_m2)
    tail = abs(
        dd_to_float(dd_mul(dd_from_fraction(_em_coeff(s, _EM_ORDER + 1)), power))
    )
    return SeriesValue(value=val, derivative=der, tail_bound=tail)


@lru_cache(maxsize=None)
def l4_em(s: int) -> SeriesValue:
    """L(s, chi_4) and L'(s, chi_4) for integer s >= 1, chi_4 the
    quadratic character mod 4."""
    if s < 1:
        raise InvalidRangeError("l4_em needs s >= 1")
    M = _EM_TERMS
    val: DD = (0.0, 0.0)
    der: DD = (0.0, 0.0)
    for k in range(M):
        a = 4 * k + 1
        b = 4 * k + 3
        ap = _inv_pow(a, s)
        bp = _inv_pow(b, s)
        val = dd_add(val, dd_sub(ap, bp))
        if a > 1:
            der = dd_sub(der, dd_mul(dd_log_dyadic(a), ap))
        der = dd_add(der, dd_mul(dd_log_dyadic(b), bp))
    a = 4 * M + 1
    b = 4 * M + 3
    loga = dd_log_dyadic(a)
    logb = dd_log_dyadic(b)
    if s == 1:
        # [A^(1-s) - B^(1-s)] / (4(s-1)) -> (log B - log A)/4 as s -> 1,
        # and its own s-derivative -> (log^2 A - log^2 B)/8
        quarter = dd_sub(logb, loga)
        val = dd_add(val, (0.25 * quarter[0], 0.25 * quarter[1]))
        dsq = dd_sub(dd_mul(loga, loga), dd_mul(logb, logb))
        der = dd_add(der, (0.125 * dsq[0], 0.125 * dsq[1]))
    else:
        a1s = _inv_pow(a, s - 1)
        b1s = _inv_pow(b, s - 1)
        diff = dd_sub(a1s, b1s)
        denom = dd_from_int(4 * (s - 1))
        piece = dd_div(diff, denom)
        val = dd_add(val, piece)
        dnum = dd_sub(dd_mul(logb, b1s), dd_mul(loga, a1s))
        der = dd_add(der, dd_div(dnum, denom))
        der = dd_sub(der, dd_div(piece, dd_from_int(s - 1)))
    # half terms [A^-s - B^-s]/2
    aps = _inv_pow(a, s)
    bps = _inv_pow(b, s)
    half = dd_sub(aps, bps)
    val = dd_add(val, (0.5 * half[0], 0.5 * half[1]))
    dhalf = dd_sub(dd_mul(logb, bps), dd_mul(loga, aps))
    der = dd_add(der, (0.5 * dhalf[0], 0.5 * dhalf[1]))
    # corrections, with the 4^(2j-1) factor from absorbing 4^-s exactly
    pow_a = dd_mul(aps, _inv(a))  # A^-(s+1)
    pow_b = dd_mul(bps, _inv(b))
    inv_a2 = _inv_pow(a, 2)
    inv_b2 = _inv_pow(b, 2)
    four = 4
    for j in range(1, _EM_ORDER + 1):
        cj = dd_from_fraction(_em_coeff(s, j) * four)
        ta = dd_mul(cj, pow_a)
        tb = dd_mul(cj, pow_b)
        val = dd_add(val, dd_sub(ta, tb))
        hj = dd_from_fraction(_em_coeff_logsum(s, j))
        der = dd_add(der, dd_mul(ta, dd_sub(hj, loga)))
        der = dd_sub(der, dd_mul(tb, dd_sub(hj, logb)))
        pow_a = dd_mul(pow_a, inv_a2)
        pow_b = dd_mul(pow_b, inv_b2)
        four *= 16
    tail = 2.0 * abs(
        dd_to_float(
            dd_mul(dd_from_fraction(_em_coeff(s, _EM_ORDER + 1) * four), pow_a)
        )
    )
    return SeriesValue(value=val, derivative=der, tail_bound=tail)


def neg_log_deriv_zeta(s: int) -> tuple[DD, float]:
    """-zeta'/zeta at integer s >= 2, with the EM truncation envelope."""
    sv = zeta_em(s)
    out = dd_neg(dd_div(sv.derivative, sv.value))
    return out, sv.tail_bound


def neg_log_deriv_l4(s: int) -> tuple[DD, float]:
    """-L'/L at integer s >= 1 for the quadratic character mod 4."""
    sv = l4_em(s)
    out = dd_neg(dd_div(sv.derivative, sv.value))
    return out, sv.tail_bound
