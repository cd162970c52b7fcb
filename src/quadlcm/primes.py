"""Segmented prime generation, residue-class counting, Chebyshev psi.

All windows use the half-open convention (lo, hi]: a prime p belongs to the
window when lo < p <= hi.  Segment size is measured in integers; the sieve
never stores the even numbers, so the working set per segment is at most
half the nominal window.

A segment is sieved into one of two masks, each read without a
Python-level loop over its slots.  The odd mask holds one byte per odd
number: `iter_primes` compresses the odd numbers by it, and `count_primes`,
`pi1_range` and `prime_counts` count its set bytes and those of its 1 mod 4
stride.  The 1 mod 4 mask holds one byte per number ≡ 1 mod 4, half as
many: `iter_primes_one_mod_four` compresses those numbers by it, and the
(p, ν) stream of `roots` gathers it at sums of two squares, so both hold a
quarter of the window.  A segment's mask is freed before the next segment
is sieved, so one is alive at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from typing import Callable, Iterator

from .errors import InvalidRangeError

# 2^21 integers (2^20 odd residues) per segment: fits L2 cache comfortably.
DEFAULT_SEGMENT = 1 << 21

# Work ceilings, each refused before any work; `cli.COMMANDS` states each
# with its measured cost per unit.  chebyshev_psi and prime_counts walk the
# primes in flat memory, a few minutes at either ceiling; the discrepancy
# sample keeps two Fractions per point (6.1 s and 179 MB at 10⁷, single
# runs; a leaner sample will restate it); naive compute_B is one sieve pass
# to p_max (about 6 s); log_lcm_bruteforce grows as n^2.4 (80 s at 10⁵).
PSI_MAX_N = 10**10
COUNTS_MAX_N = 5 * 10**10
SAMPLE_MAX_N = 10**7
MAX_P_MAX = 10**8
ORACLE_MAX_N = 10**5


@dataclass(frozen=True)
class PrimeCounts:
    n: int
    pi: int
    pi1: int


@lru_cache(maxsize=32)
def _small_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit: one window (0, limit] sieved by the primes up
    to its square root; used for base primes."""
    if limit < 2:
        return ()
    first, alive = _sieve_window(0, limit, _small_primes(math.isqrt(limit)))
    return (2, *compress(range(first, limit + 1, 2), alive))


def _sieve_window(
    lo: int, hi: int, base: tuple[int, ...], step: int = 2
) -> tuple[int, bytearray]:
    """Mask of the numbers ≡ 1 mod step in (lo, hi], step 2 (the odd mask)
    or 4 (the 1 mod 4 mask), given base primes covering sqrt(hi):
    (first, alive) with alive[j] = 1 exactly when first + step·j is an odd
    prime, first the least number ≡ 1 mod step above max(lo, step).
    2 is the caller's."""
    first = max(lo + 1, step + 1)
    first += (1 - first) % step
    if first > hi:
        return first, bytearray()
    size = (hi - first) // step + 1
    alive = bytearray(b"\x01") * size
    for p in base:
        if p == 2:
            continue
        if p * p > hi:
            break
        # p·k ≡ 1 mod step exactly when k ≡ p (p² ≡ 1 mod 4), and the
        # next such multiple is step·p further on: p slots
        k = max(p, lo // p + 1)
        start = p * (k + (p - k) % step)
        if start > hi:
            continue
        idx = (start - first) // step
        count = (size - idx + p - 1) // p
        alive[idx::p] = bytes(count)
    return first, alive


def _odd_primes(lo: int, hi: int, base: tuple[int, ...]) -> Iterator[int]:
    """The odd primes in (lo, hi]: every odd slot of the mask."""
    first, alive = _sieve_window(lo, hi, base)
    return compress(range(first, hi + 1, 2), alive)


def _primes_one_mod_four(lo: int, hi: int, base: tuple[int, ...]) -> Iterator[int]:
    """The primes p ≡ 1 mod 4 in (lo, hi]: every slot of the 1 mod 4 mask."""
    first, alive = _sieve_window(lo, hi, base, 4)
    return compress(range(first, hi + 1, 4), alive)


def _window_counts(lo: int, hi: int, base: tuple[int, ...]) -> tuple[int, int]:
    """(odd primes, primes ≡ 1 mod 4) in (lo, hi]: the set slots of the
    mask and of its 1 mod 4 stride."""
    first, alive = _sieve_window(lo, hi, base)
    return alive.count(1), alive[(first >> 1) & 1 :: 2].count(1)


def _windows(window: Callable, lo: int, hi: int, segment: int) -> Iterator:
    """window(cur, top, base) for each segment (cur, top] of (lo, hi].

    A bad window raises here, at the call.  Each result is yielded without
    being bound, so one segment's mask is freed before the next is sieved.
    """
    if hi < lo:
        raise InvalidRangeError(f"empty window: ({lo}, {hi}]")
    if lo < 0:
        raise InvalidRangeError("window must start at a non-negative bound")
    base = _small_primes(math.isqrt(hi))
    starts = range(lo, hi, segment)
    return (window(cur, min(cur + segment, hi), base) for cur in starts)


def iter_primes(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> Iterator[int]:
    """Stream primes in (lo, hi] in ascending order, one segment at a time."""
    windows = _windows(_odd_primes, lo, hi, segment)
    head = (2,) if lo < 2 <= hi else ()
    return chain(head, chain.from_iterable(windows))


def iter_primes_one_mod_four(
    lo: int, hi: int, segment: int = DEFAULT_SEGMENT
) -> Iterator[int]:
    """Stream the primes p ≡ 1 mod 4 in (lo, hi] in ascending order."""
    return chain.from_iterable(_windows(_primes_one_mod_four, lo, hi, segment))


def _counts(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> tuple[int, int]:
    """(pi, pi1) over (lo, hi] from one pass over the segments' masks."""
    pi = 1 if lo < 2 <= hi else 0
    pi1 = 0
    for odd, one_mod_four in _windows(_window_counts, lo, hi, segment):
        pi += odd
        pi1 += one_mod_four
    return pi, pi1


def count_primes(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> int:
    """pi over (lo, hi]: the set slots of each segment's mask, plus 2."""
    return _counts(lo, hi, segment)[0]


# exact below 3317044064679887385961981 (Sorenson & Webster 2015); without
# 41 only below 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3·10²⁴; for one outside p."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise InvalidRangeError unless p is prime."""
    if not is_prime(p):
        raise InvalidRangeError(f"p = {p} is not a prime")


def _require_within(n: int, ceiling: int, name: str = "n") -> None:
    """Raise InvalidRangeError, before any work, for n (called name in the
    message) past a work ceiling."""
    if n > ceiling:
        raise InvalidRangeError(
            f"{name} must be at most the work ceiling {ceiling}, got {name} = {n}"
        )


def prime_counts(n: int) -> PrimeCounts:
    """Exact pi(n) and pi1(n) = |{p <= n : p = 1 mod 4}|, for n up to
    COUNTS_MAX_N."""
    if n < 0:
        raise InvalidRangeError("prime counting needs n >= 0")
    _require_within(n, COUNTS_MAX_N)
    pi, pi1 = _counts(0, n)
    return PrimeCounts(n=n, pi=pi, pi1=pi1)


def pi1_range(a: int, b: int) -> int:
    """Count primes p = 1 mod 4 with a < p <= b."""
    return _counts(a, b)[1]


def chebyshev_psi(n: int) -> float:
    """psi(n) = sum of log p over prime powers p^m <= n.

    A prime p ≤ √n adds k log p for the largest k with p^k ≤ n, found by
    exact integer multiplication (a floating log-ratio can misround just
    below a perfect power); every larger prime adds log p once.  The terms
    are rounded once each and reduced by one fsum.  n is at most PSI_MAX_N.
    """
    if n < 1:
        raise InvalidRangeError("chebyshev_psi needs n >= 1")
    _require_within(n, PSI_MAX_N)
    root = math.isqrt(n)
    small = (_top_exponent(p, n) * math.log(p) for p in iter_primes(0, root))
    return math.fsum(chain(small, map(math.log, iter_primes(root, n))))


def _top_exponent(p: int, n: int) -> int:
    """The largest k with p^k ≤ n, for p ≤ n."""
    power = p
    k = 1
    while power <= n // p:
        power *= p
        k += 1
    return k
