"""Exact p-adic orders for the sequence i²+1 and the log-lcm decomposition.

Notation used throughout: for a prime p and bound n,

* alpha(p, n) is the order of p in the product of i²+1 over i ≤ n,
* beta(p, n) is the order of p in lcm(i²+1 : i ≤ n),
* alpha_star(p, n) counts i ≤ n with p | i²+1,
* beta_star(p, n) is the 0/1 indicator that some i ≤ n has p | i²+1
  (only p = 2 and p ≡ 1 mod 4 can score).

The central computational fact: alpha = beta for every prime p > 2n, so

    log L_n = log P_n − Σ_{p ≤ 2n} (alpha − beta) log p

is exact, and the right side is one fold over the (p, ν) stream of
`roots.prime_roots` up to 2n (the p ≡ 1 mod 4; p = 2 is a closed form and
p ≡ 3 mod 4 divides no i²+1) instead of factoring n quadratic values.
A level q = p^a is met when its smaller root ν_q < q/2 is ≤ n, as every
q ≤ 2n is; a q > 2n has at most one root ≤ n, which adds one to alpha
and one to beta.  So alpha − beta = Σ_{q = p^a ≤ 2n} (N_q − 1) with
N_q = `_level_count(n, ν_q, q)`.  `_excess` states that sum once, and
both block folds, the lcm correction and the decomposition ledger, take
it, lifting only p ≤ √(2n).
Beta itself is read only by `order_profile` and `square_divisor_primes`,
through `_order_counts`: count level 1 from ν, lift one Hensel step per
level and stop at the first level whose smaller root exceeds n.  Only a
few hundred primes meet a second level (581 at n = 10⁷), so
`square_divisor_primes` lifts only the medium p ≤ p0 = ⌊n^0.8⌋ and takes
those above from `_square_census` (the p0 < p ≤ n whose square divides
some i²+1, from continued fractions, none at n = 10⁷).
log P_n itself is a closed form,
2 Re log Γ(n+1+i) − log(π/sinh π), evaluated by Stirling's series in
the 40-digit decimal CONTEXT, so it costs the same at every n.

Primes split at the exact integer boundary p³ < n² ("small", below n^(2/3))
versus p³ ≥ n² ("medium", up to 2n).  The medium correction decomposes
per prime as (alpha − beta) = (alpha − alpha_star) − (beta − beta_star)
+ (alpha_star − beta_star); the report tracks each piece separately along
with an exact integer residual of that rearrangement (always 0).
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidRangeError, OracleCapError
# iter_primes is not called here; it stays bound for perfbench/probe.py
from .primes import DEFAULT_SEGMENT, _require_within, is_prime, iter_primes, require_prime
from .roots import MAX_N, _lift, _lifted_root, prime_roots, roots_mod_prime_power
from .summation import (
    CONTEXT,
    HALF_LOG_2PI,
    LOG_PI_OVER_SINH_PI,
    _weight,
    from_fraction,
    log_of_bigint,
)

ORACLE_CAP_DEFAULT = 5_000

# log_P takes 1 <= n < LOG_P_MAX_N: below it (n+1)² + 1 < 2^1024, so every
# value log_P converts to a double is finite.
LOG_P_MAX_N = 2**511

# Stirling's series for log Γ(z) is summed at Re z >= _STIRLING_MIN_Y, over
# the coefficients B₂ₖ/(2k(2k−1)) = _weight(k) (2k−2)! for k ≤ 10.
_STIRLING_MIN_Y = 24


@dataclass(frozen=True)
class OrderProfile:
    """All four exact orders of one prime at one bound."""

    p: int
    n: int
    alpha: int
    beta: int
    alpha_star: int
    beta_star: int


@dataclass(frozen=True)
class LcmEvaluation:
    """Exact log L_n together with the pieces it was assembled from.

    correction includes the p = 2 term, which is also broken out as
    two_term; log_L equals log_P − correction by construction.
    """

    n: int
    log_P: float
    log_L: float
    correction: float
    two_term: float


@dataclass(frozen=True)
class DecompositionReport:
    """Per-range pieces of the correction Σ (alpha − beta) log p.

    small_sum covers 2 < p < n^(2/3); the remaining fields cover the
    medium window n^(2/3) ≤ p ≤ 2n, where the per-prime coefficient is
    rearranged as (beta − beta_star − alpha + alpha_star) + beta_star
    − alpha_star, with alpha − beta from `_excess`, alpha_star = N_p and
    beta_star = 1.  identity_residue is the summed absolute integer
    mismatch of that rearrangement (an algebraic identity, so 0).
    medium_high_sum is 0 too: a medium prime has p² > 2n (as p ≥ n^(2/3)
    for n > 8, as p ≥ 5 for n ≤ 12), so its levels past the first add
    as much to beta as to alpha.  bad_primes is `square_divisor_primes`.

    beta_star_reference = n and alpha_star_reference
    = Σ_medium 2 n log p / (p − 1) are the first-order predictions the
    two starred sums are measured against.
    """

    n: int
    small_sum: float
    medium_high_sum: float
    beta_star_sum: float
    alpha_star_sum: float
    two_correction: float
    bad_primes: tuple[int, ...]
    beta_star_reference: float
    alpha_star_reference: float
    identity_residue: int


def count_solutions_upto(p: int, a: int, n: int) -> int:
    """|{1 ≤ i ≤ n : p^a divides i²+1}| for p ≡ 1 mod 4: `_level_count`
    at the smaller root mod p^a.  It is 0 on its own once p^a > n²+1."""
    if n < 1:
        raise InvalidRangeError("count_solutions_upto needs n >= 1")
    return _level_count(n, roots_mod_prime_power(p, a).nu1, p**a)


def _level_count(n: int, nu: int, pa: int) -> int:
    """|{1 ≤ i ≤ n : pa divides i²+1}| for pa = p^a, p ≡ 1 mod 4, from the
    smaller root ν of x² ≡ −1 mod pa: the one statement of the level count.

    The solutions are ν, pa − ν and their translates by multiples of pa,
    so the count is 2 + ⌊(n−ν)/pa⌋ + ⌊(n−pa+ν)/pa⌋ with floors toward −∞
    (each floor is −1 when its root itself exceeds n).
    """
    return 2 + (n - nu) // pa + (n - pa + nu) // pa


def _order_counts(p: int, n: int, nu: int) -> tuple[int, int, int]:
    """(alpha, beta, alpha_star) for p ≡ 1 mod 4 from its smaller root
    0 < ν < p/2: the one statement of the per-prime order rule.

    Level a, `_level_count` at the smaller root mod p^a, is met exactly
    when that root is ≤ n.  Levels fill contiguously (an i ≤ n with
    p^(a+1) | i²+1 is a level-a root too), so the count stops at the first
    level whose smaller root, one `_lift` above the last, exceeds n.
    """
    if nu > n:
        return 0, 0, 0
    alpha = alpha_star = _level_count(n, nu, p)
    beta = 1
    pa = p
    # the guard only saves lifts: past it the next smaller root r has
    # r²+1 ≥ p^(a+1) > n²+1, so r > n anyway; a p > n never lifts
    while pa * p <= n * n + 1:
        nu = _lift(p, nu, pa)
        if nu > n:
            break
        pa *= p
        alpha += _level_count(n, nu, pa)
        beta += 1
    return alpha, beta, alpha_star


def _square_census(n: int) -> tuple[int, frozenset[int]]:
    """(p0, the primes p0 < p ≤ n whose square divides some i²+1 with
    i ≤ n) for p0 = ⌊n^0.8⌋, found with no root extraction and no lift.

    Such an i has i²+1 = m·p² with m ≤ M = ⌊(n²+1)/(p0+1)²⌋, and m ≥ 2
    is no square (else i²+1 would be one).  gcd(i, p) = 1, and as i ≥ p
    and √m > 1, |i/p − √m| = 1/(p(i + p√m)) < 1/(2p²), so by Legendre's
    theorem i/p is a convergent of √m.  The census walks the continued fraction of
    each such √m by integer recurrences while the numerator h is ≤ n, and
    keeps each prime denominator k > p0 with h²+1 = m·k².  A composite
    k = p·t needs no factoring: p is met itself at m·t² ≤ M.  M follows
    from p0 exactly, so no choice of p0 loses a prime; n^0.8 keeps both M
    (630 at n = 10⁷) and the primes below p0, which
    `square_divisor_primes` lifts, few.
    """
    p0 = int(n**0.8)
    found = set()
    for m in range(2, (n * n + 1) // (p0 + 1) ** 2 + 1):
        a0 = math.isqrt(m)
        if a0 * a0 == m:
            continue
        # √m = [a0; a1, ...] with a_j = ⌊(a0 + P_j)/Q_j⌋; h/k the convergents
        a, P, Q = a0, 0, 1
        h, h_prev, k, k_prev = a0, 1, 1, 0
        while h <= n:
            if k > p0 and h * h + 1 == m * k * k and is_prime(k):
                found.add(k)
            P = a * Q - P
            Q = (m - P * P) // Q
            a = (a0 + P) // Q
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
    return p0, frozenset(found)


def alpha_exact(p: int, n: int) -> int:
    """Order of p in the product of i²+1 over 1 ≤ i ≤ n."""
    return order_profile(p, n).alpha


def beta_exact(p: int, n: int) -> int:
    """Order of p in lcm(i²+1 : 1 ≤ i ≤ n): the largest a whose smallest
    root does not exceed n."""
    return order_profile(p, n).beta


def order_profile(p: int, n: int) -> OrderProfile:
    """All four orders of a prime p at bound n ≥ 1."""
    require_prime(p)
    if n < 1:
        raise InvalidRangeError("order_profile needs n >= 1")
    if p == 2:
        # exactly the odd i contribute, each a single factor of 2
        odd = (n + 1) // 2
        return OrderProfile(p=2, n=n, alpha=odd, beta=1, alpha_star=odd, beta_star=1)
    if p % 4 == 3:
        return OrderProfile(p=p, n=n, alpha=0, beta=0, alpha_star=0, beta_star=0)
    alpha, beta, a_st = _order_counts(p, n, _lifted_root(p, 1))
    return OrderProfile(
        p=p, n=n, alpha=alpha, beta=beta, alpha_star=a_st, beta_star=1 if a_st else 0
    )


def require_within_ceiling(n: int) -> None:
    """Raise InvalidRangeError, before any work, for n past MAX_N."""
    _require_within(n, MAX_N)


def _map_blocks(fn: Callable, blocks: Sequence, workers: int) -> list:
    """Map fn over fixed blocks, serially or on a pool, in block order.

    The pool starts at most one process per CPU and per block.  Block
    boundaries never depend on the worker count, and callers reduce
    the partials by one fsum, which rounds their exact sum once: neither
    the worker count nor the order of the partials can change its bits.
    A worker count below 1 raises InvalidRangeError.
    """
    if workers < 1:
        raise InvalidRangeError("worker count must be >= 1")
    processes = min(workers, len(blocks), os.cpu_count() or 1)
    if processes <= 1:
        return [fn(b) for b in blocks]
    # imported here, so a serial run never loads multiprocessing
    from multiprocessing import Pool

    with Pool(processes=processes) as pool:
        return list(pool.imap(fn, blocks, chunksize=1))


def _stirling_tail(y: int) -> Fraction:
    """Σ_k B₂ₖ/(2k(2k−1)) · Re (y+i)^(1−2k), exactly: each term is
    Re (y−i)^(2k−1) / (y²+1)^(2k−1)."""
    q = y * y + 1
    step_re, step_im = y * y - 1, -2 * y  # (y − i)²
    re, im = y, -1  # (y − i)^(2k−1)
    total = Fraction(0)
    for k in range(1, 11):
        coeff = _weight(k) * math.factorial(2 * k - 2)
        total += coeff * Fraction(re, q ** (2 * k - 1))
        re, im = re * step_re - im * step_im, re * step_im + im * step_re
    return total


def _atan_inverse(y: int) -> Decimal:
    """atan(1/y) for an integer y ≥ 2, from its alternating series
    Σ_k (−1)^k / ((2k+1) y^(2k+1)).  The terms are summed exactly while
    they are at least 10^−(prec+3)/y, under a thousandth of a unit in the
    last digit of the result (≈ 1/y); the omitted tail is below its first
    term, so one rounding gives the correctly rounded value save at a
    near-tie."""
    cut = 10 ** (CONTEXT.prec + 3) * y
    total = Fraction(0)
    k = 0
    while (2 * k + 1) * y ** (2 * k + 1) <= cut:
        total += Fraction((-1) ** k, (2 * k + 1) * y ** (2 * k + 1))
        k += 1
    return from_fraction(total)


def log_P(n: int) -> float:
    """Σ_{i ≤ n} log(i²+1), correctly rounded, in closed form."""
    if not 1 <= n < LOG_P_MAX_N:
        raise InvalidRangeError(f"log_P needs 1 <= n < 2**511, got n = {n}")
    return float(_log_P_decimal(n))


def _log_P_decimal(n: int) -> Decimal:
    """log P_n in the 40-digit CONTEXT, within 1e-27 relative.

    Π_{i ≤ n} (i²+1) = |Γ(n+1+i)|² / |Γ(1+i)|² and |Γ(1+i)|² = π/sinh π.
    With y = max(n+1, 24), shifting by Γ(z+1) = zΓ(z) and taking
    Stirling's series at z = y+i gives

        log P_n = (y − ½) log(y²+1) − 2 atan(1/y) − 2y + 2 · ½ log 2π
                  + 2 Σ_{k ≤ 10} B₂ₖ/(2k(2k−1)) Re (y+i)^(1−2k)
                  − log(π/sinh π) − log Π_{n < j < y} (j²+1).

    For Re z > 0 the series' remainder is at most its first omitted term
    times sec²²(arg z / 2); at |z| > 24 that bounds 2 Re of it by 2.8e-28,
    under 4.1e-28 of log P_n ≥ log 2.  Every other step is one correctly
    rounded 40-digit operation (5e-40 relative at most) on terms at most
    250 times the result, so together they add under 1e-36 relative.  The
    sum lies within 1e-27 relative of log P_n, and its rounding to a
    double is correct unless log P_n is that close to a midpoint between
    doubles.
    """
    y = max(n + 1, _STIRLING_MIN_Y)
    with localcontext(CONTEXT) as ctx:
        return (
            (y - Decimal("0.5")) * ctx.ln(y * y + 1)
            - 2 * _atan_inverse(y)
            - 2 * y
            + from_fraction(2 * _stirling_tail(y))
            + 2 * HALF_LOG_2PI
            - LOG_PI_OVER_SINH_PI
            - ctx.ln(math.prod(j * j + 1 for j in range(n + 1, y)))
        )


def _blocks(n: int) -> list[tuple]:
    """The fixed prime windows (lo, hi] covering (0, 2n], one per segment,
    each as the args (lo, hi, n) of a block fold."""
    hi = 2 * n
    return [(k, min(k + DEFAULT_SEGMENT, hi), n) for k in range(0, hi, DEFAULT_SEGMENT)]


def _excess(n: int, p: int, nu: int) -> int:
    """alpha − beta for a p ≡ 1 mod 4, p ≤ 2n, from its smaller root ν: the
    level sum Σ_{q = p^a ≤ 2n} (N_q − 1), one `_lift` per level.  The block
    folds call it only at p² ≤ 2n, where a second level exists."""
    d = _level_count(n, nu, p) - 1
    pa = p
    while pa * p <= 2 * n:
        nu = _lift(p, nu, pa)
        pa *= p
        d += _level_count(n, nu, pa) - 1
    return d


def _correction_block(args: tuple) -> float:
    """fsum of the nonzero (alpha − beta) log p over primes p in (lo, hi],
    each coefficient `_excess`, one integer per prime.  p = 2 is the
    caller's.  The terms reach fsum as a stream, so a block never keeps
    them in a list; fsum rounds their exact sum once, whatever their order."""
    lo, hi, n = args
    top = 2 * n

    def terms():
        log = math.log
        for p, nu in prime_roots(lo, hi):
            d = _level_count(n, nu, p) - 1 if p * p > top else _excess(n, p, nu)
            if d:
                yield d * log(p)

    return math.fsum(terms())


def _correction_partials(n: int, workers: int) -> list[float]:
    return _map_blocks(_correction_block, _blocks(n), workers)


def _ledger_block(args: tuple) -> tuple:
    """Accumulate every per-prime piece of the decomposition over (lo, hi],
    from the same (lo, hi, n) args and the same `_excess` as the lcm fold.

    Returns (small_sum, medium_high, beta_star_sum, alpha_star_sum,
    alpha_star_reference, identity_residue).  A stream prime p ≤ 2n has
    ν < p/2 ≤ n, so alpha_star = N_p ≥ 1 and beta_star = 1; beta itself
    is never read.  Only the stream's p ≡ 1 mod 4 contribute; the
    quadratic-character weight in the alpha_star reference kills
    p ≡ 3 mod 4 and p = 2 is the caller's.
    """
    lo, hi, n = args
    nn = n * n
    top = 2 * n
    # doubles in arrays, not float objects in lists: a block holds up to
    # 77,779 medium primes (n = 10⁷)
    small, medhigh, bstar, astar, aref = (array("d") for _ in range(5))
    identity = 0
    for p, nu in prime_roots(lo, hi):
        a_st = _level_count(n, nu, p)
        d = a_st - 1 if p * p > top else _excess(n, p, nu)
        lp = math.log(p)
        if p * p * p < nn:
            if d:
                small.append(d * lp)
        else:
            c = a_st - 1 - d  # beta − beta_star − alpha + alpha_star
            if c:
                medhigh.append(c * lp)
            bstar.append(lp)
            astar.append(a_st * lp)
            aref.append(2.0 * n * lp / (p - 1))
            identity += abs(-d - (c + 1 - a_st))
    return (*map(math.fsum, (small, medhigh, bstar, astar, aref)), identity)


def _ledger_partials(n: int, workers: int) -> list:
    return _map_blocks(_ledger_block, _blocks(n), workers)


def _two_term(n: int) -> float:
    # alpha − beta at p = 2 is ⌈n/2⌉ − 1 exactly
    return ((n + 1) // 2 - 1) * math.log(2.0)


def log_lcm_exact(n: int, workers: int = 1) -> LcmEvaluation:
    """Exact log L_n via the p ≤ 2n correction; never an asymptotic."""
    if n < 1:
        raise InvalidRangeError("log_lcm_exact needs n >= 1")
    require_within_ceiling(n)
    logp = log_P(n)
    two = _two_term(n)
    correction = math.fsum([two, *_correction_partials(n, workers)])
    return LcmEvaluation(
        n=n, log_P=logp, log_L=logp - correction, correction=correction, two_term=two
    )


def log_lcm_bruteforce(n: int, cap: int = ORACLE_CAP_DEFAULT) -> float:
    """Independent oracle: log of the exact big-integer lcm.

    Quadratic-time in n, hence capped; raises OracleCapError past the cap
    rather than silently grinding.
    """
    if n < 1:
        raise InvalidRangeError("log_lcm_bruteforce needs n >= 1")
    if n > cap:
        raise OracleCapError(
            f"exact-integer oracle capped at n = {cap}, got n = {n}"
        )
    acc = 1
    for i in range(1, n + 1):
        acc = math.lcm(acc, i * i + 1)
    return log_of_bigint(acc)


def square_divisor_primes(n: int) -> list[int]:
    """Medium-window primes whose square divides some i²+1 with i ≤ n.

    These are exactly the p ≡ 1 mod 4 with n^(2/3) ≤ p ≤ 2n and beta ≥ 2,
    ascending.  Only p ≤ n can qualify (p² ≤ n²+1 < (n+1)²): the stream
    stops at min(n, p0), and `_square_census` gives those above p0, all
    past n^(2/3).
    """
    if n < 1:
        raise InvalidRangeError("square_divisor_primes needs n >= 1")
    require_within_ceiling(n)
    nn = n * n
    p0, census = _square_census(n)
    lifted = (
        p
        for p, nu in prime_roots(1, min(n, p0))
        if p * p * p >= nn and _order_counts(p, n, nu)[1] >= 2
    )
    return [*sorted(lifted), *sorted(census)]


def decomposition_report(n: int, workers: int = 1) -> DecompositionReport:
    """All named pieces of the correction, split at the small/medium boundary."""
    if n < 2:
        raise InvalidRangeError("decomposition_report needs n >= 2")
    require_within_ceiling(n)
    small, medhigh, bstar, astar, aref, identity = zip(*_ledger_partials(n, workers))
    return DecompositionReport(
        n=n,
        small_sum=math.fsum(small),
        medium_high_sum=math.fsum(medhigh),
        beta_star_sum=math.fsum(bstar),
        alpha_star_sum=math.fsum(astar),
        two_correction=_two_term(n),
        bad_primes=tuple(square_divisor_primes(n)),
        beta_star_reference=float(n),
        alpha_star_reference=math.fsum(aref),
        identity_residue=sum(identity),
    )
