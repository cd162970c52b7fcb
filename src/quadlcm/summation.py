"""The one summation rule, and the one decimal context of the closed forms.

Every sum over primes (millions of terms, each rounded once) is one
correctly rounded `math.fsum`: it rounds the exact sum once, so neither the
order of its terms nor the split of a range into blocks can change its bits.
The closed forms (the constant B, and log P_n through Stirling's series)
run in CONTEXT, a 40-digit `decimal` context whose + − × ÷ and ln are
correctly rounded by the decimal specification.  Every entry point works in
CONTEXT, through its methods or `localcontext(CONTEXT)`, never in the
caller's context; outside such a block negate with `copy_negate()`, since
unary minus rounds in the current context.  `geometric` is the one grid
rule, shared by the CLI's start:stop:factor specs and the verify checks.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache

# 40 digits is the least precision at which B's low word stops moving.
CONTEXT = Context(prec=40, rounding=ROUND_HALF_EVEN)

# the Euler constant, the Stirling constant ½ log 2π and
# log |Γ(1+i)|² = log(π/sinh π), each rounded to 40 significant digits
GAMMA = Decimal("0.5772156649015328606065120900824024310422")
HALF_LOG_2PI = Decimal("0.9189385332046727417803297364056176398614")
LOG_PI_OVER_SINH_PI = Decimal("-1.301846398603712677770433663007895330131")
LN2 = CONTEXT.ln(2)


@lru_cache(maxsize=None)
def _weight(n: int) -> Fraction:
    """B_2n/(2n)!, from (x/2) coth(x/2) = sum of B_2n x^2n/(2n)!: times
    sinh(x/2) it is (x/2) cosh(x/2), so sum over j <= n of
    4^j B_2j/(2j)!/(2n-2j+1)! equals 1/(2n)!.  The one statement of the
    Bernoulli numbers, for Euler-Maclaurin and Stirling's series."""
    acc = Fraction(1, math.factorial(2 * n))
    for j in range(n):
        acc -= _weight(j) * 4**j / math.factorial(2 * (n - j) + 1)
    return acc / 4**n


def from_fraction(f: Fraction) -> Decimal:
    """f rounded once to CONTEXT."""
    return CONTEXT.divide(f.numerator, f.denominator)


def geometric(lo: int, hi: int, factor: int = 10) -> list[int]:
    """lo, lo·factor, lo·factor², ... up to hi: the grid of every verify
    check and of the CLI's start:stop:factor specs."""
    out = []
    n = lo
    while n <= hi:
        out.append(n)
        n *= factor
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
