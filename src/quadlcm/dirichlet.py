"""Zeta, odd-integer zeta and mod-4 L-series values and s-derivatives at
integer s, by one Euler-Maclaurin routine.

A series is (q, residues): the sum of sign · x^-s over x > 0, x ≡ r mod q,
for each (r, sign) in residues.  ZETA, LAMBDA (odd x, so lambda(s) =
(1 − 2^-s) zeta(s)) and L4 (L(s, chi_4)) are the three the prime power
sums use.  `em_series` evaluates one in the 40-digit decimal CONTEXT: a
main sum over x < qM, then the integral piece, the half term and the
corrections c_j(s) q^(2j−1) a^(−s−2j+1), c_j(s) = B_2j/(2j)! (s)_{2j−1},
at each residue's first x = a ≥ qM.  Every coefficient is an exact integer
ratio and every power of an integer is exact, so each term is rounded
once; the only other roundings are the logarithms of integers and the sums.

The residues are summed term by term, L(s) = sum_k [(4k+1)^-s − (4k+3)^-s]
+ tail differences, never as 4^-s [zeta(s,1/4) − zeta(s,3/4)]: at s = 64
the Hurwitz values are ~4^64 while L is ~1, and that subtraction would burn
38 of the 40 digits.  When the signs sum to 0 there is no pole, and s = 1
(conditionally convergent; pi/4 for L4) takes the exact limit of the
integral piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache, partial
from operator import mul

from .errors import DivergentSeriesError, InvalidRangeError
from .summation import CONTEXT, _weight

# Main-sum length and correction order. At M=40 the first omitted
# correction is ~1e-50 for every s >= 1, below the 40-digit resolution.
_EM_TERMS = 40
_EM_ORDER = 20

ZETA = (1, ((1, 1),))
LAMBDA = (2, ((1, 1),))
L4 = (4, ((1, 1), (3, -1)))


@dataclass(frozen=True)
class SeriesValue:
    """A series value, its s-derivative, and the truncation envelope
    (magnitude of the first omitted correction term)."""

    value: Decimal
    derivative: Decimal
    tail_bound: float


def _rising_factorials(s: int):
    """(s)_{2j-1} and its s-derivative, both integers, for j = 1, 2, ...:
    their ratio is h_j(s) = sum of 1/(s+i) for i < 2j-1, and both gain
    the factors (s+2j-1)(s+2j) from j to j+1."""
    rise, dr, j = s, 1, 1
    while True:
        yield rise, dr
        u, v = s + 2 * j - 1, s + 2 * j
        rise, dr, j = rise * u * v, dr * u * v + rise * (u + v), j + 1


@lru_cache(maxsize=None)
def _ln(k: int) -> Decimal:
    """ln k in CONTEXT, cached: the series take about 160 distinct k."""
    return CONTEXT.ln(k)


@lru_cache(maxsize=None)
def em_series(q: int, residues: tuple, s: int) -> SeriesValue:
    """The series (q, residues) and its s-derivative at integer s >= 1
    (s >= 2 when the signs do not sum to 0)."""
    signs = [Decimal(sign) for _, sign in residues]
    if s < 2 and sum(signs):
        raise DivergentSeriesError("the series has a pole at s = 1; it needs s >= 2")
    if s < 1:
        raise InvalidRangeError("the series needs s >= 1")
    M = _EM_TERMS
    tails = [q * M + r % q for r, _ in residues]
    logs = [_ln(a) for a in tails]

    def signed(terms):
        return sum(map(mul, signs, terms))

    with localcontext(CONTEXT):
        val = der = Decimal(0)
        for xs in zip(*(range(r, q * M, q) for r, _ in residues)):
            powers = [Decimal(1) / x**s for x in xs]
            val += signed(powers)
            der -= signed(map(mul, map(_ln, xs), powers))
        if s == 1:
            # sum sign a^(1-s)/(q(s-1)) -> -sum sign log a/q as s -> 1, and its
            # own s-derivative -> sum sign log^2 a/(2q)
            val -= signed(logs) / q
            der += signed(lg * lg for lg in logs) / (2 * q)
        else:
            # integral piece sum sign a^(1-s)/(q(s-1))
            inv = [Decimal(1) / a ** (s - 1) for a in tails]
            piece = signed(inv) / (q * (s - 1))
            val += piece
            dinv = signed(lg * p for lg, p in zip(logs, inv)) / (q * (s - 1))
            der -= dinv + piece / (s - 1)
        # half terms sign a^-s/2
        powers = [Decimal(1) / a**s for a in tails]
        val += signed(powers) / 2
        der -= signed(lg * p for lg, p in zip(logs, powers)) / 2
        # corrections c_j(s) q^(2j-1) a^(-s-2j+1), each one integer quotient,
        # and their s-derivatives through h_j(s) = d/ds log (s)_{2j-1}
        rising = _rising_factorials(s)
        for j, (rise, dr) in zip(range(1, _EM_ORDER + 1), rising):
            w = _weight(j)
            num, den = w.numerator * rise * q ** (2 * j - 1), w.denominator
            terms = [CONTEXT.divide(num, den * a ** (s + 2 * j - 1)) for a in tails]
            val += signed(terms)
            hj = CONTEXT.divide(dr, rise)
            der += signed(t * (hj - lg) for t, lg in zip(terms, logs))
    j = _EM_ORDER + 1
    w, (rise, _) = _weight(j), next(rising)
    first = abs(w.numerator) * rise * q ** (2 * j - 1) / (
        w.denominator * min(tails) ** (s + 2 * j - 1)
    )
    return SeriesValue(value=val, derivative=der, tail_bound=len(tails) * first)


def neg_log_deriv(q: int, residues: tuple, s: int) -> tuple[Decimal, float]:
    """-F'/F of the series (q, residues) at s, with the EM truncation envelope."""
    sv = em_series(q, residues, s)
    return CONTEXT.divide(sv.derivative, sv.value).copy_negate(), sv.tail_bound


# zeta(s) for s >= 2 and L(s, chi_4) for s >= 1, chi_4 the quadratic
# character mod 4: values, s-derivatives and their -F'/F
zeta_em = partial(em_series, *ZETA)
l4_em = partial(em_series, *L4)
neg_log_deriv_zeta = partial(neg_log_deriv, *ZETA)
neg_log_deriv_l4 = partial(neg_log_deriv, *L4)
