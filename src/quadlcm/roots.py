"""Roots of x² ≡ −1 modulo primes and prime powers.

Only p = 2 and primes p ≡ 1 mod 4 admit roots.  For odd p the two roots of
any modulus p^a pair up as (nu, p^a − nu); for p = 2 the single root is 1
and no lift past a = 1 exists because i²+1 is 2 mod 4 for odd i.

The root mod p is the closed form c^((p−1)/4) for a quadratic non-residue c,
whose square is −1 by Euler's criterion.  c = 2 when p ≡ 5 mod 8.  For
p ≡ 1 mod 8 it is the least non-residue among 3, 5, 7, 11, 13, read off a
table of p mod 15015 = 3·5·7·11·13 (by reciprocity (q/p) = (p/q), since
p ≡ 1 mod 4), and only when all five are residues (1 in 32 such p) the
least one past them, found the same way up to 61 and by Euler's criterion
beyond.  The smaller root does not depend on which non-residue is used:
c^((p−1)/4) is one of the two roots ±ν whatever c, so the output is a pure
function of p.  Roots mod p^a are Newton (Hensel) lifts of it.  Each pass
visits a prime once, so nothing is cached.

`prime_roots` is the one (p, ν) stream every root consumer folds over.  It
holds only the primes with a root pair, p ≡ 1 mod 4, read from the sieve's
1 mod 4 view, so ν is never 0; p = 2 (root 1) is each consumer's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import tee
from typing import Iterator

from .errors import InvalidRangeError, NotOneModFourError, RangeOverflowError
from .primes import iter_primes_one_mod_four, require_prime

_MACHINE_MAX = (1 << 63) - 1
# every p ≡ 1 mod 4 is at least 5 and 5^28 > _MACHINE_MAX, so an exponent
# this large is refused before p^a is built
_MAX_EXPONENT = 28

# (q, the non-residues mod q) for the odd primes q ≤ 61
_NON_RESIDUES = tuple(
    (q, frozenset(range(1, q)) - {x * x % q for x in range(1, q)})
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
)

# p mod 3·5·7·11·13 -> the least q of the five that is a non-residue mod a
# prime p ≡ 1 mod 4 in that class, 0 when all five are residues
_TABLE_MODULUS = 15015


def _non_residue_table() -> bytes:
    table = bytearray(_TABLE_MODULUS)
    for q, non_residues in reversed(_NON_RESIDUES[:5]):  # smaller q last, on top
        for r in non_residues:
            table[r::q] = bytes((q,)) * len(range(r, _TABLE_MODULUS, q))
    return bytes(table)


_NON_RESIDUE_TABLE = _non_residue_table()


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


def _least_non_residue(p: int) -> int:
    """Least non-residue mod a prime p ≡ 1 mod 8: an odd prime q, and one
    exactly when p mod q is one mod q, as (q/p) = (p/q) by reciprocity.
    Euler's criterion takes over past 61 (first at p = 48473881: c = 67)."""
    for q, non_residues in _NON_RESIDUES:
        if p % q in non_residues:
            return q
    c, half = 67, (p - 1) // 2  # every c ≤ 66 is a product of residues
    while (r := pow(c, half, p)) != p - 1:
        if r != 1:  # a prime gives ±1; a c sharing a factor with p, neither
            raise InvalidRangeError(f"p = {p} is not a prime")
        c += 1
    return c


def _sqrt_minus_one_value(p: int) -> int:
    """Smaller root of x² ≡ −1 mod a prime p ≡ 1 mod 4: c^((p−1)/4) for a
    non-residue c (2 when p ≡ 5 mod 8, else from the table by p mod 15015)."""
    if p & 7 == 5:
        c = 2
    else:
        c = _NON_RESIDUE_TABLE[p % _TABLE_MODULUS] or _least_non_residue(p)
    x = pow(c, p >> 2, p)
    return x if x + x < p else p - x


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


def prime_roots(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(p, ν) for every prime p ≡ 1 mod 4 in (lo, hi], ascending, from one
    sieve pass: ν is the smaller root of x² ≡ −1 mod p, so 0 < ν < p/2.

    p = 2 and the primes p ≡ 3 mod 4 are not in the stream.  Every consumer
    of the root fractions folds over this one stream.  A bad window raises
    InvalidRangeError at the call.
    """
    ps, qs = tee(iter_primes_one_mod_four(lo, hi))
    return zip(ps, map(_sqrt_minus_one_value, qs))


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


def root_stream(lo: int, hi: int) -> Iterator[RootStreamItem]:
    """All roots 0 < nu < p over primes p in (lo, hi], ordered by (p, nu).

    Emits nothing for p ≡ 3 mod 4; emits the single (2, 1) for p = 2 and
    the ascending pair for p ≡ 1 mod 4.  An empty or negative window raises
    InvalidRangeError from the sieve.
    """
    pairs = prime_roots(lo, hi)
    if lo < 2 <= hi:
        yield RootStreamItem(p=2, nu=1, fraction=Fraction(1, 2))
    for p, nu in pairs:
        yield RootStreamItem(p=p, nu=nu, fraction=Fraction(nu, p))
        yield RootStreamItem(p=p, nu=p - nu, fraction=Fraction(p - nu, p))
