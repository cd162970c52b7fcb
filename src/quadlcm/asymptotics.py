"""Mertens-type prime sums, the constant B, and residual analysis.

The leading behavior of log L_n is n log n + B n with

    B = gamma − 1 − (log 2)/2 − S,
    S = Σ over odd primes of chi(p) log p / (p−1),

chi the quadratic character mod 4 (+1 when p ≡ 1, −1 when p ≡ 3).  S is
evaluated two ways: a naive truncation at p_max (its tail_bound 3/log p_max
is only a loose envelope; the observed error is about p_max^(−1/2), biased
in sign by Chebyshev's bias and oscillating in size, so it can never deliver
many digits) and an accelerated route expanding 1/(p−1) into the
geometric series Σ_{k≥1} p^(−k), which turns S into Σ_{k≥1} P_quad(k)
with P_quad(k) = Σ_p chi(p) log p · p^(−k).  Each P is recovered top-down
from the logarithmic derivative of zeta, of lambda(s) = (1 − 2^(−s)) zeta(s)
(the principal character mod 4) or of L(·, chi) via the von Mangoldt
identity, with all arguments above 64 dropped and replaced by a rigorous
majorant-tail bound.  Everything high-precision runs in the 40-digit
decimal CONTEXT; every sum at prime scale is one correctly rounded fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache
from itertools import tee
from operator import mul, truediv
from typing import Iterator

from .errors import InvalidRangeError
from .dirichlet import L4, LAMBDA, ZETA, neg_log_deriv
# unused here, but kept bound: the benchmark probe times the series by them
from .dirichlet import neg_log_deriv_l4, neg_log_deriv_zeta  # noqa: F401
from .orders import log_lcm_exact
from .primes import iter_primes, iter_primes_one_mod_four
from .summation import CONTEXT, GAMMA, LN2

CHAR_TRIVIAL = "trivial"
CHAR_PRINCIPAL = "principal-mod-4"
CHAR_QUADRATIC = "quadratic-mod-4"

HALF_LOG2 = 0.5 * math.log(2.0)

# Arguments above this are dropped from the recursion; the dropped mass
# shrinks like 2^(−s) and is accounted for in tail_bound.
_ARGUMENT_CUTOFF = 64

# Work ceilings of compute_B.  Past depth 83 the next term's majorant is
# below 1e-40, under the 40-digit resolution of S: value_lo has not moved
# since depth 71, and tail_bound (1.59e-30) moves by less than 1e-40 per
# step.  The naive sum costs about 0.06 us per unit of p_max (one
# segmented sieve pass, flat memory), so 10^8 takes about 6 s.
MAX_DEPTH = 83
MAX_P_MAX = 10**8


@dataclass(frozen=True)
class PowerSumValue:
    """P_char(s) = Σ_p char(p) log p · p^(−s): its 40-digit value split
    as hi = float(x), lo = float(x − hi)."""

    s: int
    char: str
    hi: float
    lo: float
    tail_bound: float

    @property
    def value(self) -> float:
        return self.hi + self.lo


@dataclass(frozen=True)
class ConstantEvaluation:
    """One evaluation of B and the settings that produced it.

    value is the plain-double recombination gamma − 1 − (log 2)/2 − S
    from the stored fields (so the recombination identity holds exactly);
    value_hi/value_lo split the 40-digit result x as hi = float(x),
    lo = float(x − hi).  tail_bound covers every truncation made along
    the way.
    """

    mode: str
    value: float
    value_hi: float
    value_lo: float
    s_value: float
    tail_bound: float
    gamma_used: float
    p_max: int | None = None
    depth: int | None = None


@dataclass(frozen=True)
class ResidualReport:
    """log L_n against its predicted main term n log n + B n.

    eq6_main is the finite-sum intermediate 2n log n − n(1 + (log 2)/2
    + Σ_{2<p≤2n} (1+chi(p)) log p/(p−1)); replacing its two prime sums by
    their limits (Mertens-type and S) turns it into `main`, so
    eq6_vs_closed measures exactly the finite-vs-limit slack.  Since
    1+chi(p) is 2 for p ≡ 1 mod 4 and 0 for p ≡ 3 mod 4, the prime sum is
    evaluated as 2 Σ_{p≡1 (4), p≤2n} log p/(p−1): each term rounded once,
    then one correctly rounded fsum.
    """

    n: int
    log_L: float
    main: float
    r: float
    normalized: float
    eq6_main: float
    eq6_vs_exact: float
    eq6_vs_closed: float


def _harmonic_terms(primes: Iterator[int]) -> Iterator[float]:
    """log p/(p−1) over a prime stream, each term rounded once, at C level
    (the two tee branches are read in lockstep, so no list is kept)."""
    a, b = tee(primes)
    return map(truediv, map(math.log, a), map((1).__rsub__, b))


def _prime_harmonic_sums(x: int) -> tuple[float, float]:
    """(Σ log p/(p−1), Σ chi(p) log p/(p−1)) over odd primes p ≤ x."""
    return mertens_log_sum(x), character_log_sum(x)


def _eq6_prime_sum(x: int) -> float:
    """2 Σ log p/(p−1) over p ≡ 1 mod 4, p ≤ x, by one fsum (doubling is
    exact)."""
    return 2.0 * math.fsum(_harmonic_terms(iter_primes_one_mod_four(0, x)))


def mertens_log_sum(x: int) -> float:
    """Σ log p/(p−1) over odd primes p ≤ x; grows like log(x/2) − gamma."""
    if x < 3:
        raise InvalidRangeError("mertens_log_sum needs x >= 3")
    return math.fsum(_harmonic_terms(iter_primes(2, x)))


def character_log_sum(x: int) -> float:
    """Σ chi(p) log p/(p−1) over odd primes p ≤ x; converges as x grows."""
    if x < 3:
        raise InvalidRangeError("character_log_sum needs x >= 3")
    # chi(p) = 2 − p mod 4 on odd p; the ±1 product is exact, so each
    # signed term is rounded once, and the sum is one pass
    c, primes = tee(iter_primes(2, x))
    chi = map((2).__sub__, map((4).__rmod__, c))
    return math.fsum(map(mul, chi, _harmonic_terms(primes)))


def _mangoldt_majorant(k: int, odd_only: bool) -> float:
    """Upper bound for Σ_p log p · p^(−k) (p odd when odd_only).

    Compare with Σ_{n≥3} log n · n^(−k) ≤ log3·3^(−k) + ∫_3^∞ log x·x^(−k) dx;
    the integrand decreases on x ≥ 3 > e^(1/(k−1)) for k ≥ 2.
    """
    out = math.log(3.0) * 3.0 ** (-k) + 3.0 ** (1 - k) * (
        math.log(3.0) / (k - 1) + 1.0 / (k - 1) ** 2
    )
    if not odd_only:
        out += math.log(2.0) * 2.0 ** (-k)
    return out


def _dropped_args_bound(first_arg: int, step: int, odd_only: bool) -> float:
    # majorant shrinks at least by 3^(−step) (2^(−step) with p=2 present)
    # per step, so a geometric sum caps the whole dropped family
    ratio = (3.0 if odd_only else 2.0) ** (-step)
    return _mangoldt_majorant(first_arg, odd_only) / (1.0 - ratio)


# Each character as (the series F with -F'/F(s) = sum over m >= 1 of
# P_{char^m}(ms), the character of char^2); char^m is char for odd m.  The
# principal character's series runs over odd integers, never touching p = 2.
_ROWS = {
    CHAR_TRIVIAL: (ZETA, CHAR_TRIVIAL),
    CHAR_PRINCIPAL: (LAMBDA, CHAR_PRINCIPAL),
    CHAR_QUADRATIC: (L4, CHAR_PRINCIPAL),
}


@lru_cache(maxsize=None)
def _power_sum(char: str, s: int) -> tuple[Decimal, float]:
    """(value, tail_bound) for P_char(s) by the top-down recursion
    P_char(s) = -F'/F(s) − sum over m ≥ 2 of P_{char^m}(ms)."""
    if char not in _ROWS:
        raise InvalidRangeError(
            f"unknown character {char!r}; expected one of {', '.join(map(repr, _ROWS))}"
        )
    (q, residues), square = _ROWS[char]
    val, bound = neg_log_deriv(q, residues, s)
    m = 2
    while m * s <= _ARGUMENT_CUTOFF:
        sub, sub_bound = _power_sum(char if m % 2 else square, m * s)
        val = CONTEXT.subtract(val, sub)
        bound += sub_bound
        m += 1
    bound += _dropped_args_bound(m * s, s, odd_only=q > 1)
    return val, bound


def _split(x: Decimal) -> tuple[float, float]:
    """(hi, lo) = (float(x), float(x − hi)): the leading double and the
    rest, each correctly rounded."""
    hi = float(x)
    return hi, float(CONTEXT.subtract(x, Decimal.from_float(hi)))


def prime_log_power_sum(s: int, char: str = CHAR_TRIVIAL) -> PowerSumValue:
    """Σ_p char(p) log p · p^(−s); s ≥ 2 unless the character is quadratic."""
    val, bound = _power_sum(char, s)
    hi, lo = _split(val)
    return PowerSumValue(s=s, char=char, hi=hi, lo=lo, tail_bound=bound)


def _recombine(gamma_used: float, s_value: float) -> float:
    # canonical plain-double expression; tests reconstruct it verbatim
    return gamma_used - 1.0 - HALF_LOG2 - s_value


def _evaluation(
    mode: str, s: Decimal, tail_bound: float, **settings
) -> ConstantEvaluation:
    """B = gamma − 1 − (log 2)/2 − S from the 40-digit S, and its doubles."""
    with localcontext(CONTEXT):
        value_hi, value_lo = _split(GAMMA - 1 - LN2 / 2 - s)
    gamma_used = float(GAMMA)
    s_value = float(s)
    return ConstantEvaluation(
        mode=mode,
        value=_recombine(gamma_used, s_value),
        value_hi=value_hi,
        value_lo=value_lo,
        s_value=s_value,
        tail_bound=tail_bound,
        gamma_used=gamma_used,
        **settings,
    )


@lru_cache(maxsize=None)
def _accelerated_b(depth: int) -> ConstantEvaluation:
    terms = [_power_sum(CHAR_QUADRATIC, k) for k in range(1, depth + 1)]
    with localcontext(CONTEXT):
        s = sum(val for val, _ in terms)
    # |P_quad(k)| ≤ odd majorant(k); geometric from depth+1 on
    bound = sum(b for _, b in terms)
    bound += _dropped_args_bound(depth + 1, 1, odd_only=True)
    return _evaluation("accelerated", s, bound, depth=depth)


def compute_B(
    mode: str = "accelerated", *, p_max: int = 10**6, depth: int = 48
) -> ConstantEvaluation:
    """Evaluate B = gamma − 1 − (log 2)/2 − S.

    naive mode truncates the defining character sum at p_max (tail_bound
    3/log p_max is a loose envelope; the observed error is about
    p_max^(−1/2) and biased in sign); the accelerated mode sums
    P_quad(1..depth) with rigorous majorant tails, within 7.4e-24 (its
    tail_bound) by depth 48.  Either refuses, before any work, a depth
    or p_max past its ceiling MAX_DEPTH or MAX_P_MAX.
    """
    if mode == "accelerated":
        if not 16 <= depth <= MAX_DEPTH:
            raise InvalidRangeError(f"accelerated mode needs 16 <= depth <= {MAX_DEPTH}")
        return _accelerated_b(depth)
    if mode == "naive":
        if not 10**3 <= p_max <= MAX_P_MAX:
            raise InvalidRangeError(f"naive mode needs 1000 <= p_max <= {MAX_P_MAX}")
        s = Decimal.from_float(character_log_sum(p_max))
        return _evaluation("naive", s, 3.0 / math.log(p_max), p_max=p_max)
    raise InvalidRangeError(f"unknown mode {mode!r}; use 'naive' or 'accelerated'")


def residual_scan(
    grid: list[int], theta: float = 0.44, workers: int = 1
) -> list[ResidualReport]:
    """r(n) = log L_n − (n log n + B n) along a grid, with the finite
    Eq.-style intermediate for comparison.

    normalized is r · (log n)^theta / n; theta must sit strictly inside
    (0, 4/9), default just under the top.  The eq6 prime sum streams only
    the 1 mod 4 view of the sieve to 2n; ResidualReport says why that is
    exact and how the sum is rounded.
    """
    if not grid:
        raise InvalidRangeError("empty grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidRangeError("grid must be strictly ascending")
    if any(n < 1 for n in grid):
        raise InvalidRangeError("grid entries must be at least 1")
    if not 0.0 < theta < 4.0 / 9.0:
        raise InvalidRangeError("theta must lie strictly inside (0, 4/9)")
    b_value = compute_B("accelerated").value
    out: list[ResidualReport] = []
    for n in grid:
        ev = log_lcm_exact(n, workers=workers)
        logn = math.log(n)
        main = n * logn + b_value * n
        r = ev.log_L - main
        normalized = r * logn**theta / n if n > 1 else 0.0
        eq6_main = 2 * n * logn - n * (1.0 + HALF_LOG2 + _eq6_prime_sum(2 * n))
        out.append(
            ResidualReport(
                n=n,
                log_L=ev.log_L,
                main=main,
                r=r,
                normalized=normalized,
                eq6_main=eq6_main,
                eq6_vs_exact=eq6_main - ev.log_L,
                eq6_vs_closed=eq6_main - main,
            )
        )
    return out
