"""Zeta and mod-4 L-series values and s-derivatives at integer arguments.

Both series are evaluated by Euler-Maclaurin acceleration in the 40-digit
decimal CONTEXT: a short main sum, the integral and half-term boundary
pieces, and correction terms B_2j/(2j)! (s)_{2j-1} M^{-s-2j+1}.  Every
coefficient in that scaffolding is an exact rational at integer s
(Bernoulli numbers, rising factorials, harmonic-like h_j sums), and each
power of an integer is exact, so every term is rounded once; the only
other roundings are the logarithms of integers and the sums.

The L-series is summed in paired-difference form,

    L(s) = sum_k [(4k+1)^-s - (4k+3)^-s] + tail differences,

never as 4^-s [zeta(s,1/4) - zeta(s,3/4)]: at s = 64 the Hurwitz values
are ~4^64 while L is ~1, and that subtraction would burn 38 of the 40
digits.  In paired form each difference cancels at most a few bits.
s = 1 (conditionally convergent, value pi/4) is handled by the exact limit
of the boundary term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .errors import DivergentSeriesError, InvalidRangeError
from .summation import CONTEXT, from_fraction

# Main-sum length and correction order. At M=40 the first omitted
# correction is ~1e-50 for every s >= 1, below the 40-digit resolution.
_EM_TERMS = 40
_EM_ORDER = 20


@dataclass(frozen=True)
class SeriesValue:
    """A series value, its s-derivative, and the truncation envelope
    (magnitude of the first omitted correction term)."""

    value: Decimal
    derivative: Decimal
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
def _ln(k: int) -> Decimal:
    """ln k in CONTEXT, cached: the two series take about 120 distinct k."""
    return CONTEXT.ln(k)


@lru_cache(maxsize=None)
def zeta_em(s: int) -> SeriesValue:
    """zeta(s) and zeta'(s) for integer s >= 2."""
    if s < 2:
        raise DivergentSeriesError("zeta(s) needs s >= 2 (pole at s = 1)")
    M = _EM_TERMS
    logm = _ln(M)
    with localcontext(CONTEXT):
        val = Decimal(1)  # k = 1 term; its log is 0
        der = Decimal(0)
        for k in range(2, M):
            kp = Decimal(1) / k**s
            val += kp
            der -= _ln(k) * kp
        # integral piece M^(1-s)/(s-1)
        piece = Decimal(1) / ((s - 1) * M ** (s - 1))
        val += piece
        der -= piece * logm + piece / (s - 1)
        # half-term M^-s / 2
        half = Decimal(1) / (2 * M**s)
        val += half
        der -= half * logm
        # corrections c_j(s) M^(-s-2j+1), each exact rational rounded once,
        # as one integer quotient
        for j in range(1, _EM_ORDER + 1):
            c = _em_coeff(s, j)
            term = CONTEXT.divide(c.numerator, c.denominator * M ** (s + 2 * j - 1))
            val += term
            der += term * (from_fraction(_em_coeff_logsum(s, j)) - logm)
    j = _EM_ORDER + 1
    tail = abs(float(_em_coeff(s, j) / M ** (s + 2 * j - 1)))
    return SeriesValue(value=val, derivative=der, tail_bound=tail)


@lru_cache(maxsize=None)
def l4_em(s: int) -> SeriesValue:
    """L(s, chi_4) and L'(s, chi_4) for integer s >= 1, chi_4 the
    quadratic character mod 4."""
    if s < 1:
        raise InvalidRangeError("l4_em needs s >= 1")
    M = _EM_TERMS
    a = 4 * M + 1
    b = 4 * M + 3
    loga = _ln(a)
    logb = _ln(b)
    with localcontext(CONTEXT):
        val = der = Decimal(0)
        for k in range(M):
            ap = Decimal(1) / (4 * k + 1) ** s
            bp = Decimal(1) / (4 * k + 3) ** s
            val += ap - bp
            der += _ln(4 * k + 3) * bp - _ln(4 * k + 1) * ap
        if s == 1:
            # [A^(1-s) - B^(1-s)] / (4(s-1)) -> (log B - log A)/4 as s -> 1,
            # and its own s-derivative -> (log^2 A - log^2 B)/8
            val += (logb - loga) / 4
            der += (loga * loga - logb * logb) / 8
        else:
            a1s = Decimal(1) / a ** (s - 1)
            b1s = Decimal(1) / b ** (s - 1)
            piece = (a1s - b1s) / (4 * (s - 1))
            val += piece
            der += (logb * b1s - loga * a1s) / (4 * (s - 1)) - piece / (s - 1)
        # half terms [A^-s - B^-s]/2
        aps = Decimal(1) / a**s
        bps = Decimal(1) / b**s
        val += (aps - bps) / 2
        der += (logb * bps - loga * aps) / 2
        # corrections, with the 4^(2j-1) factor from absorbing 4^-s exactly
        for j in range(1, _EM_ORDER + 1):
            c = _em_coeff(s, j)
            num, den = c.numerator * 4 ** (2 * j - 1), c.denominator
            ta = CONTEXT.divide(num, den * a ** (s + 2 * j - 1))
            tb = CONTEXT.divide(num, den * b ** (s + 2 * j - 1))
            val += ta - tb
            hj = from_fraction(_em_coeff_logsum(s, j))
            der += ta * (hj - loga) - tb * (hj - logb)
    j = _EM_ORDER + 1
    tail = 2.0 * abs(float(_em_coeff(s, j) * 4 ** (2 * j - 1) / a ** (s + 2 * j - 1)))
    return SeriesValue(value=val, derivative=der, tail_bound=tail)


def neg_log_deriv_zeta(s: int) -> tuple[Decimal, float]:
    """-zeta'/zeta at integer s >= 2, with the EM truncation envelope."""
    sv = zeta_em(s)
    return CONTEXT.divide(sv.derivative, sv.value).copy_negate(), sv.tail_bound


def neg_log_deriv_l4(s: int) -> tuple[Decimal, float]:
    """-L'/L at integer s >= 1 for the quadratic character mod 4."""
    sv = l4_em(s)
    return CONTEXT.divide(sv.derivative, sv.value).copy_negate(), sv.tail_bound
