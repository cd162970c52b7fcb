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
`roots.prime_roots` up to 2n instead of factoring n quadratic values: the
roots mod p², p³, … are Hensel lifts, each from the root of the level
below.  Above n only level 1 exists, since p² ≥ (n+1)² > n²+1, and the
smaller root ν ≤ p/2 ≤ n always lies in range, so there α − β is exactly
[p − ν ≤ n] and needs no lift.  log P_n itself is a closed form,
2 Re log Γ(n+1+i) − log(π/sinh π), evaluated by Stirling's series in
double-word arithmetic, so it costs the same at every n.

Primes split at the exact integer boundary p³ < n² ("small", below n^(2/3))
versus p³ ≥ n² ("medium", up to 2n).  The medium correction decomposes
per prime as (alpha − beta) = (alpha − alpha_star) − (beta − beta_star)
+ (alpha_star − beta_star); the report tracks each piece separately along
with an exact integer residual of that rearrangement (always 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Callable, Sequence

from .errors import InvalidRangeError, OracleCapError
# iter_primes is unused here; perfbench/probe.py reads it (and _lifted_root)
from .primes import DEFAULT_SEGMENT, iter_primes, require_prime
from .roots import _lifted_root, lift_root, prime_roots, roots_mod_prime_power
from .summation import (
    DD,
    HALF_LOG_2PI_DD,
    LOG_PI_OVER_SINH_PI_DD,
    KahanSum,
    dd_add,
    dd_atan_small,
    dd_from_fraction,
    dd_from_int,
    dd_log_dyadic,
    dd_mul,
    dd_sub,
    dd_to_float,
    log_of_bigint,
)

ORACLE_CAP_DEFAULT = 5_000

# log_P takes 1 <= n < LOG_P_MAX_N: below it (n+1)² + 1 < 2^1024, so every
# value log_P converts to a double is finite.
LOG_P_MAX_N = 2**511

# Stirling's series for log Γ(z) is summed at Re z >= _STIRLING_MIN_Y, over
# the coefficients B₂ₖ/(2k(2k−1)) from the Bernoulli numbers B₂ … B₂₀.
_STIRLING_MIN_Y = 24
_STIRLING_COEFFS = tuple(
    Fraction(num, den) / (2 * k * (2 * k - 1))
    for k, (num, den) in enumerate(
        ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
         (-3617, 510), (43867, 798), (-174611, 330)),
        1,
    )
)


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
    − alpha_star.  identity_residue is the summed absolute integer
    mismatch of that rearrangement (an algebraic identity, so 0).

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
    """|{1 ≤ i ≤ n : p^a divides i²+1}| for p ≡ 1 mod 4.

    With roots nu1 < nu2 of x² ≡ −1 mod p^a, the solutions ≤ n are
    nu1, nu2 and their translates by multiples of p^a, giving
    2 + ⌊(n−nu1)/p^a⌋ + ⌊(n−nu2)/p^a⌋ where the floor rounds toward −∞
    (each floor is −1 when the root itself exceeds n).  The formula
    returns 0 on its own once p^a > n²+1.
    """
    if n < 1:
        raise InvalidRangeError("count_solutions_upto needs n >= 1")
    pair = roots_mod_prime_power(p, a)
    pa = p**a
    return 2 + (n - pair.nu1) // pa + (n - pair.nu2) // pa


def _order_counts(p: int, n: int, nu: int) -> tuple[int, int, int]:
    """(alpha, beta, alpha_star) for p ≡ 1 mod 4 by per-level root counts,
    from a root 0 < ν < p lifted one Hensel digit per level.

    The lift from p^(a−1) adds t·p^(a−1) with ν²+1 = k·p^(a−1) and
    t ≡ −k/(2ν) ≡ k·ν·(p+1)/2 mod p, since 1/ν ≡ −ν mod p: the same root
    `lift_root`'s Newton step reaches, without a modular inverse.

    Divisibility levels fill contiguously: if no i ≤ n has p^a | i²+1
    then no higher power divides any i²+1 with i ≤ n either, so the scan
    stops at the first empty level.  Either root of a level counts the same.
    """
    limit = n * n + 1
    alpha = 0
    beta = 0
    alpha_star = 0
    half = (p + 1) >> 1
    prev = 1
    pa = p
    a = 1
    while pa <= limit:
        if a > 1:
            nu += (nu * nu + 1) // prev * nu * half % p * prev
        c = 2 + (n - nu) // pa + (n - (pa - nu)) // pa
        if c == 0:
            break
        alpha += c
        beta = a
        if a == 1:
            alpha_star = c
        a += 1
        prev = pa
        pa *= p
    return alpha, beta, alpha_star


def alpha_exact(p: int, n: int) -> int:
    """Order of p in the product of i²+1 over 1 ≤ i ≤ n."""
    return order_profile(p, n).alpha


def beta_exact(p: int, n: int) -> int:
    """Order of p in lcm(i²+1 : 1 ≤ i ≤ n): the largest a whose smallest
    root does not exceed n."""
    return order_profile(p, n).beta


def alpha_star(p: int, n: int) -> int:
    """Count of i ≤ n with p | i²+1."""
    return order_profile(p, n).alpha_star


def beta_star(p: int, n: int) -> int:
    """1 when p admits a root and some i ≤ n realizes it, else 0."""
    return order_profile(p, n).beta_star


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


def _map_blocks(fn: Callable, blocks: Sequence, workers: int) -> list:
    """Map over fixed blocks, reducing in ascending block order.

    Block boundaries never depend on the worker count, and each block is
    summed exactly on its own, so the reduced result is bit-identical
    whether computed serially or on a pool.
    """
    if workers <= 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with Pool(processes=min(workers, len(blocks))) as pool:
        return list(pool.imap(fn, blocks, chunksize=1))


def _stirling_tail(y: int) -> Fraction:
    """Σ_k B₂ₖ/(2k(2k−1)) · Re (y+i)^(1−2k), exactly: each term is
    Re (y−i)^(2k−1) / (y²+1)^(2k−1)."""
    q = y * y + 1
    step_re, step_im = y * y - 1, -2 * y  # (y − i)²
    re, im = y, -1  # (y − i)^(2k−1)
    total = Fraction(0)
    for k, coeff in enumerate(_STIRLING_COEFFS, 1):
        total += coeff * Fraction(re, q ** (2 * k - 1))
        re, im = re * step_re - im * step_im, re * step_im + im * step_re
    return total


def log_P(n: int) -> float:
    """Σ_{i ≤ n} log(i²+1), correctly rounded, in closed form."""
    if not 1 <= n < LOG_P_MAX_N:
        raise InvalidRangeError(f"log_P needs 1 <= n < 2**511, got n = {n}")
    return dd_to_float(_log_P_dd(n))


def _log_P_dd(n: int) -> DD:
    """log P_n in double-word precision, within 1e-27 relative.

    Π_{i ≤ n} (i²+1) = |Γ(n+1+i)|² / |Γ(1+i)|² and |Γ(1+i)|² = π/sinh π.
    With y = max(n+1, 24), shifting by Γ(z+1) = zΓ(z) and taking
    Stirling's series at z = y+i gives

        log P_n = (y − ½) log(y²+1) − 2 atan(1/y) − 2y + 2 · ½ log 2π
                  + 2 Σ_{k ≤ 10} B₂ₖ/(2k(2k−1)) Re (y+i)^(1−2k)
                  − log(π/sinh π) − log Π_{n < j < y} (j²+1).

    For Re z > 0 the series' remainder is at most its first omitted term
    times sec²²(arg z / 2); at |z| > 24 that bounds 2 Re of it by 2.8e-28.
    The rest is double-word arithmetic (about 2^-104 relative per step on
    terms at most 250 times the result), so the sum lies within 1e-27
    relative of log P_n, and its rounding to a double is correct unless
    log P_n is that close to a midpoint between doubles.
    """
    y = max(n + 1, _STIRLING_MIN_Y)
    at = dd_atan_small(dd_from_fraction(Fraction(1, y)))
    acc = dd_mul(dd_sub(dd_from_int(y), (0.5, 0.0)), dd_log_dyadic(y * y + 1))
    acc = dd_sub(acc, dd_add(at, at))
    acc = dd_sub(acc, dd_from_int(2 * y))
    acc = dd_add(acc, dd_from_fraction(2 * _stirling_tail(y)))
    acc = dd_add(acc, dd_add(HALF_LOG_2PI_DD, HALF_LOG_2PI_DD))
    acc = dd_sub(acc, LOG_PI_OVER_SINH_PI_DD)
    return dd_sub(acc, dd_log_dyadic(math.prod(j * j + 1 for j in range(n + 1, y))))


def _blocks(n: int) -> list[tuple[int, int, int]]:
    """The fixed prime windows (lo, hi] covering (0, 2n], one per segment."""
    hi = 2 * n
    return [
        (k, min(k + DEFAULT_SEGMENT, hi), n) for k in range(0, hi, DEFAULT_SEGMENT)
    ]


def _correction_block(args: tuple[int, int, int]) -> float:
    """fsum of the nonzero (alpha − beta) log p over primes p in (lo, hi].

    ν = 0 (p = 2, the caller's, and p ≡ 3 mod 4) contributes nothing.  For
    n < p ≤ 2n only level 1 exists and ν ≤ p/2 ≤ n, so alpha − beta is 1
    when the larger root p − ν is also ≤ n and 0 otherwise; ν = 0 never
    passes that test since p − n ≥ 1.  Only p ≤ n is counted level by level.
    """
    lo, hi, n = args
    terms: list[float] = []
    for p, nu in prime_roots(lo, hi):
        if p > n:
            if nu >= p - n:
                terms.append(math.log(p))
        elif nu:
            alpha, beta, _ = _order_counts(p, n, nu)
            if alpha != beta:
                terms.append((alpha - beta) * math.log(p))
    return math.fsum(terms)


def _correction_partials(n: int, workers: int) -> list[float]:
    return _map_blocks(_correction_block, _blocks(n), workers)


def _ledger_block(args: tuple[int, int, int]):
    """Accumulate every per-prime piece of the decomposition over (lo, hi].

    Returns (small_sum, medium_high, beta_star_sum, alpha_star_sum,
    alpha_star_reference, identity_residue, bad_primes).  Only p ≡ 1 mod 4
    contribute; the quadratic-character weight in the alpha_star reference
    kills p ≡ 3 mod 4 and p = 2 is the caller's.
    """
    lo, hi, n = args
    nn = n * n
    small: list[float] = []
    medhigh: list[float] = []
    bstar: list[float] = []
    astar: list[float] = []
    aref: list[float] = []
    identity = 0
    bad: list[int] = []
    for p, nu in prime_roots(lo, hi):
        if not nu:
            continue
        alpha, beta, a_st = _order_counts(p, n, nu)
        lp = math.log(p)
        diff = alpha - beta
        if p * p * p < nn:
            if diff:
                small.append(diff * lp)
        else:
            b_st = 1 if a_st else 0
            medhigh.append((beta - b_st - alpha + a_st) * lp)
            bstar.append(b_st * lp)
            astar.append(a_st * lp)
            aref.append(2.0 * n * lp / (p - 1))
            identity += abs((beta - alpha) - ((beta - b_st - alpha + a_st) + b_st - a_st))
            if beta >= 2:
                bad.append(p)
    return (
        math.fsum(small),
        math.fsum(medhigh),
        math.fsum(bstar),
        math.fsum(astar),
        math.fsum(aref),
        identity,
        bad,
    )


def _ledger_partials(n: int, workers: int) -> list:
    return _map_blocks(_ledger_block, _blocks(n), workers)


def _kahan(parts: Sequence[float]) -> float:
    """Block partials reduced in ascending block order."""
    acc = KahanSum()
    for part in parts:
        acc.add(part)
    return acc.value


def _two_term(n: int) -> float:
    # alpha − beta at p = 2 is ⌈n/2⌉ − 1 exactly
    return ((n + 1) // 2 - 1) * math.log(2.0)


def log_lcm_exact(n: int, workers: int = 1) -> LcmEvaluation:
    """Exact log L_n via the p ≤ 2n correction; never an asymptotic."""
    if n < 1:
        raise InvalidRangeError("log_lcm_exact needs n >= 1")
    logp = log_P(n)
    two = _two_term(n)
    correction = _kahan([two, *_correction_partials(n, workers)])
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

    These are exactly the p ≡ 1 mod 4 with n^(2/3) ≤ p ≤ 2n whose
    smallest level-2 root is ≤ n; ascending.  Only p ≤ n can qualify:
    p² must not exceed n²+1, and (n+1)² already does.
    """
    if n < 1:
        raise InvalidRangeError("square_divisor_primes needs n >= 1")
    nn = n * n
    return [
        p
        for p, nu in prime_roots(1, n)
        if p % 4 == 1 and p * p * p >= nn and lift_root(p, nu, 2) <= n
    ]


def decomposition_report(n: int, workers: int = 1) -> DecompositionReport:
    """All named pieces of the correction, split at the small/medium boundary."""
    if n < 2:
        raise InvalidRangeError("decomposition_report needs n >= 2")
    small, medhigh, bstar, astar, aref, identity, bad = zip(*_ledger_partials(n, workers))
    return DecompositionReport(
        n=n,
        small_sum=_kahan(small),
        medium_high_sum=_kahan(medhigh),
        beta_star_sum=_kahan(bstar),
        alpha_star_sum=_kahan(astar),
        two_correction=_two_term(n),
        bad_primes=tuple(p for block in bad for p in block),
        beta_star_reference=float(n),
        alpha_star_reference=_kahan(aref),
        identity_residue=sum(identity),
    )
