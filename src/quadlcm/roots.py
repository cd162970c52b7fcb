"""Roots of x² ≡ −1 modulo primes and prime powers.

Only p = 2 and primes p ≡ 1 mod 4 admit roots.  For odd p the two roots of
any modulus p^a pair up as (nu, p^a − nu); for p = 2 the single root is 1
and no lift past a = 1 exists because i²+1 is 2 mod 4 for odd i.

The root of one prime is the closed form c^((p−1)/4) for a quadratic
non-residue c, whose square is −1 by Euler's criterion; c runs 2, 3, …
until one is a non-residue, where the (p−1)/4-th power squares to −1.  The
smaller root does not depend on which non-residue is used: c^((p−1)/4) is
one of the two roots ±ν whatever c, so the output is a pure function of p.
Roots mod p^a are Newton (Hensel) lifts of it.  Nothing is cached.

`prime_roots` is the one (p, ν) stream every root consumer folds over.  It
holds only the primes with a root pair, p ≡ 1 mod 4, so ν is never 0; p = 2
(root 1) is each consumer's own.  It takes the roots from sums of two
squares, not from the closed form.  By Fermat, every prime p ≡ 1 mod 4 is
a² + b² with a, b > 0, and in one way only up to order (Z[i] factors
uniquely, and p = ππ̄ with π = a + bi determined up to units and
conjugation); a² + b² ≡ 1 mod 4 makes one of a, b odd and the other even,
so there is exactly one such pair with a odd and b even.  Then b is prime
to p and (a·b⁻¹)² ≡ −b²·b⁻² ≡ −1 mod p, so the two roots are ±a·b⁻¹: one
modular inverse per prime instead of a (p − 1)/4-th power.  A segment
(lo, hi] is sieved into the 1 mod 4 mask of `primes`; for each even
b ≤ √hi the odd a with a² + b² in (lo, hi] are one slice of the odd
numbers, and a C-level gather of the mask at a² + b² keeps the a that give
a prime.  That costs O(√hi) rows per segment plus about (π/16)·(hi − lo)
lattice points, about six per prime at 2·10⁷.  So the pairs come one
segment at a time, in no fixed order within a segment: the fsum folds
need no order, and `root_stream` and the consumers that keep a list of
primes sort what they keep.  The single-prime kernel serves
`sqrt_minus_one` and the lifts, and the tests hold the stream to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import add, getitem
from typing import Iterator

from .errors import InvalidRangeError, NotOneModFourError, RangeOverflowError
from .primes import DEFAULT_SEGMENT, _require_within, _sieve_window, _windows, require_prime

_MACHINE_MAX = (1 << 63) - 1
# every p ≡ 1 mod 4 is at least 5 and 5^28 > _MACHINE_MAX, so an exponent
# this large is refused before p^a is built
_MAX_EXPONENT = 28

# Work ceilings of a window (lo, hi] of root_stream and of
# discrepancy.equidistribution_sum, refused before any work.  A window costs
# about √hi/2 lattice rows per segment (0.5 s a segment at hi = 10^12) and
# 0.6 µs per unit of width, and the `roots` command keeps about 23 bytes of
# rows per unit of width: at either ceiling a run takes about 5 s and 100 MB.
ROOTS_MAX_HI = 10**12
ROOTS_MAX_WIDTH = 4 * 10**6

# Work ceiling of the consumers that walk the stream to 2n: the orders folds
# (log_lcm_exact, decomposition_report, square_divisor_primes) and
# discrepancy.centered_fraction_sum.  The serial lcm fold costs about
# 0.15 µs per unit of n at 10^7 and at 10^8 in flat memory, so 10^9 takes a
# few minutes.
MAX_N = 10**9


@dataclass(frozen=True)
class RootPair:
    """The two roots of x² ≡ −1 mod p^a for an odd prime p ≡ 1 mod 4."""

    p: int
    a: int
    nu1: int
    nu2: int

    def as_set(self) -> frozenset[int]:
        return frozenset((self.nu1, self.nu2))


@dataclass(frozen=True)
class RootStreamItem:
    p: int
    nu: int
    fraction: Fraction


def _sqrt_minus_one_value(p: int) -> int:
    """Smaller root of x² ≡ −1 mod a prime p ≡ 1 mod 4: c^((p−1)/4) for the
    least non-residue c, found by Euler's criterion (c = 2 when p ≡ 5 mod 8)."""
    for c in count(2):
        x = pow(c, p >> 2, p)
        square = x * x % p
        if square == p - 1:
            return x if x + x < p else p - x
        if square != 1:  # a prime gives ±1; a c sharing a factor with p, neither
            raise InvalidRangeError(f"p = {p} is not a prime")


def _lift(p: int, nu: int, pk: int) -> int:
    """Smaller root mod p^(k+1) above a root ν of x² ≡ −1 mod p^k.

    One Hensel (Newton) step on x²+1, without a modular inverse: the lift
    is ν + t·p^k with ν²+1 = m·p^k and t ≡ −m/(2ν) ≡ m·ν·(p+1)/2 mod p,
    since 1/ν ≡ −ν mod p.  The other root is p^(k+1) minus it.
    """
    x = nu + ((nu * nu + 1) // pk * nu * (p + 1) >> 1) % p * pk
    q = p * pk
    return x if x + x < q else q - x


def _lifted_root(p: int, a: int) -> int:
    """Smaller root mod p^a for a prime p ≡ 1 mod 4: a − 1 `_lift` steps
    above its smaller root mod p."""
    nu = _sqrt_minus_one_value(p)
    pk = p
    for _ in range(a - 1):
        nu = _lift(p, nu, pk)
        pk *= p
    return nu


def _segment_roots(lo: int, hi: int, base: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """(p, ν) for the primes p ≡ 1 mod 4 in one segment (lo, hi], row by
    row of the two-square lattice, so in no fixed order.

    Slot j of the 1 mod 4 mask is first + 4j, so a² + b² (a odd, b even)
    sits at (a² >> 2) + ((b² + 1 − first) >> 2): one list of a² >> 2 and
    one shift per row.  A set slot whose number shares a factor with b is
    no prime (only a broken mask sets one), and it is refused as the kernel
    refuses a composite.
    """
    first, alive = _sieve_window(lo, hi, base, 4)
    if first > hi:
        return
    isqrt = math.isqrt
    odd = range(1, isqrt(hi) + 1, 2)
    offsets = [(a * a) >> 2 for a in odd]
    for b in range(2, isqrt(hi - 1) + 1, 2):
        bb = b * b
        # the odd a with lo < a² + b² <= hi are odd[ia:ib]
        ia = (isqrt(lo - bb) + 1) >> 1 if lo >= bb else 0
        ib = (isqrt(hi - bb) + 1) >> 1
        if ia == ib:
            continue
        slots = map(add, offsets[ia:ib], repeat((bb + 1 - first) >> 2))
        for a in compress(odd[ia:ib], map(getitem, repeat(alive), slots)):
            p = a * a + bb
            try:
                inverse = pow(b, -1, p)
            except ValueError:
                raise InvalidRangeError(f"p = {p} is not a prime") from None
            x = a * inverse % p
            yield p, x if x + x < p else p - x


def prime_roots(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(p, ν) for every prime p ≡ 1 mod 4 in (lo, hi], once each: ν is the
    smaller root of x² ≡ −1 mod p, so 0 < ν < p/2.

    The pairs come segment by segment (`primes.DEFAULT_SEGMENT` integers
    each, ascending), in no fixed order within a segment, and a segment's
    mask is freed before the next is sieved.  Each p is a² + b² with a odd
    and b even, and ν is a·b⁻¹ or p minus it, whichever is smaller (the
    module docstring).  The cost is about √hi/2 rows per segment, with a
    list of as many ints, plus (π/16)·(hi − lo) lattice points and one
    modular inverse per prime.  A
    consumer that needs ascending p sorts what it keeps; the fsum folds
    need no order.  p = 2 and the primes p ≡ 3 mod 4 are not in the
    stream.  A bad window raises InvalidRangeError at the call.
    """
    return chain.from_iterable(_windows(_segment_roots, lo, hi, DEFAULT_SEGMENT))


def sqrt_minus_one(p: int) -> RootPair:
    """Both roots of x² ≡ −1 mod a prime p, ascending.

    Raises InvalidRangeError when p is not prime, and NotOneModFourError
    for p = 2 (whose single root 1 is no pair) and for p ≡ 3 mod 4 (−1 is
    a non-residue).
    """
    require_prime(p)
    if p % 4 != 1:
        raise NotOneModFourError(f"x² ≡ −1 has no root pair mod {p}")
    nu = _sqrt_minus_one_value(p)
    return RootPair(p=p, a=1, nu1=nu, nu2=p - nu)


def roots_mod_prime_power(p: int, a: int) -> RootPair:
    """Roots of x² ≡ −1 mod p^a for a prime p ≡ 1 mod 4, a ≥ 1."""
    require_prime(p)
    if p % 4 != 1:
        raise NotOneModFourError(f"x² ≡ −1 has no root pair mod {p}^{a}")
    if a < 1:
        raise InvalidRangeError("exponent must be at least 1")
    if a >= _MAX_EXPONENT or p**a > _MACHINE_MAX:
        raise RangeOverflowError(f"{p}^{a} exceeds the machine-integer range")
    nu = _lifted_root(p, a)
    return RootPair(p=p, a=a, nu1=nu, nu2=p**a - nu)


def min_root(p: int, a: int = 1) -> int:
    """Smallest i ≥ 1 with p^a | i²+1."""
    if p == 2:
        if a == 1:
            return 1
        raise InvalidRangeError("no root exists mod 4: i²+1 is never 0 mod 4")
    return roots_mod_prime_power(p, a).nu1


def require_root_window(lo: int, hi: int) -> None:
    """Raise InvalidRangeError, before any work, for a window (lo, hi] with
    hi past ROOTS_MAX_HI or hi − lo past ROOTS_MAX_WIDTH."""
    _require_within(hi, ROOTS_MAX_HI, "hi")
    _require_within(hi - lo, ROOTS_MAX_WIDTH, "hi - lo")


def root_stream(lo: int, hi: int) -> Iterator[RootStreamItem]:
    """All roots 0 < nu < p over primes p in (lo, hi], ordered by (p, nu).

    Emits nothing for p ≡ 3 mod 4; emits the single (2, 1) for p = 2 and
    the ascending pair for p ≡ 1 mod 4.  Each segment of `prime_roots` is
    sorted before it is emitted.  hi is at most ROOTS_MAX_HI and hi − lo
    at most ROOTS_MAX_WIDTH.  A window past either, or an empty or negative
    one, raises InvalidRangeError before any work.
    """
    require_root_window(lo, hi)
    segments = _windows(_segment_roots, lo, hi, DEFAULT_SEGMENT)
    if lo < 2 <= hi:
        yield RootStreamItem(p=2, nu=1, fraction=Fraction(1, 2))
    for segment in segments:
        for p, nu in sorted(segment):
            yield RootStreamItem(p=p, nu=nu, fraction=Fraction(nu, p))
            yield RootStreamItem(p=p, nu=p - nu, fraction=Fraction(p - nu, p))
