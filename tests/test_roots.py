"""Square roots of -1 modulo prime powers: the closed form c^((p-1)/4) for a
non-residue c, the two-square (p, nu) stream held to it, plus Hensel
lifting, checked against sympy and brute force."""

import random
import signal
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlcm.errors import InvalidRangeError, NotOneModFourError, RangeOverflowError
from quadlcm.primes import DEFAULT_SEGMENT, iter_primes
from quadlcm.roots import (
    RootPair,
    _sqrt_minus_one_value,
    prime_roots,
    min_root,
    root_stream,
    roots_mod_prime_power,
    sqrt_minus_one,
)


def test_hand_values():
    assert sqrt_minus_one(5).as_set() == {2, 3}
    assert sqrt_minus_one(13).as_set() == {5, 8}
    assert sqrt_minus_one(17).as_set() == {4, 13}
    assert roots_mod_prime_power(5, 2).as_set() == {7, 18}
    assert roots_mod_prime_power(5, 3).as_set() == {57, 68}
    assert roots_mod_prime_power(13, 2).as_set() == {70, 99}
    assert min_root(5) == 2
    assert min_root(5, 2) == 7
    assert min_root(13, 2) == 70
    assert min_root(2) == 1


def test_pair_structure():
    pair = roots_mod_prime_power(13, 2)
    assert isinstance(pair, RootPair)
    assert pair.nu1 < pair.nu2
    assert pair.nu1 + pair.nu2 == 13**2
    assert (pair.nu1**2 + 1) % 13**2 == 0


def test_rejects_wrong_residue_class():
    for p in (3, 7, 11, 19, 10007):
        with pytest.raises(NotOneModFourError):
            sqrt_minus_one(p)
    with pytest.raises(NotOneModFourError):
        sqrt_minus_one(2)


def test_two_adic_root():
    assert min_root(2, 1) == 1
    with pytest.raises(InvalidRangeError):
        min_root(2, 2)  # x²+1 ≡ 2 mod 4 kills all higher 2-power levels


def test_modulus_overflow_guard():
    with pytest.raises(RangeOverflowError):
        roots_mod_prime_power(5, 40)  # 5^40 > 2^63 - 1


def test_invalid_exponent():
    with pytest.raises(InvalidRangeError):
        roots_mod_prime_power(5, 0)


@st.composite
def prime_one_mod_four(draw):
    # uniform-ish over primes ≡ 1 mod 4 below 10^6
    seed = draw(st.integers(min_value=2, max_value=10**6))
    p = sympy.nextprime(seed)
    while p % 4 != 1:
        p = sympy.nextprime(p)
    return int(p)


# Primes ≡ 1 mod 8 whose least non-residue sets a record (c = 5, 7, ..., 67),
# so the kernel's Euler-criterion search runs longest there (c = 67 at
# 48473881), and primes ≡ 5 mod 8, where c = 2 is the first try.
_RECORD_NON_RESIDUE = (
    73, 241, 1009, 2689, 8089, 33049, 53881, 87481,
    483289, 515761, 1083289, 3818929, 9257329, 22000801, 48473881,
)
_FIVE_MOD_EIGHT = (5, 13, 29, 1000037, 9999973)


def _with_examples(test):
    for p in _RECORD_NON_RESIDUE + _FIVE_MOD_EIGHT:
        test = example(p)(test)
    return test


@_with_examples
@given(prime_one_mod_four())
@settings(max_examples=60)
def test_sqrt_minus_one_is_correct_and_minimal(p):
    pair = sqrt_minus_one(p)
    assert (pair.nu1 * pair.nu1 + 1) % p == 0
    assert 1 <= pair.nu1 < pair.nu2 < p
    assert pair.nu1 + pair.nu2 == p
    assert [pair.nu1, pair.nu2] == sorted(sympy.sqrt_mod(-1, p, all_roots=True))


def _refused_within_a_second(p):
    # the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError(f"_sqrt_minus_one_value({p}) still running after 1 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(InvalidRangeError, match="not a prime"):
            _sqrt_minus_one_value(p)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [9, 25, 49, 81])
def test_odd_squares_are_refused_not_looped_on(p):
    # an odd square is ≡ 1 mod 8, so the search goes past c = 2; it must
    # refuse the square, not search on
    _refused_within_a_second(p)


@pytest.mark.parametrize("p", [21, 45, 85, 561, 1105])
def test_composites_are_refused_not_given_a_non_root(p):
    # 21, 45, 85 are ≡ 5 mod 8 and the Carmichael numbers 561, 1105 are
    # ≡ 1 mod 8; a search that trusts c = 2 or a residue table for them
    # returns a non-root (21 -> 10, 561 -> 1), the Euler loop refuses them
    _refused_within_a_second(p)


@given(prime_one_mod_four(), st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_hensel_lift_reduces_to_lower_level(p, a):
    if p**a > (1 << 63) - 1:
        return
    pair = roots_mod_prime_power(p, a)
    below = roots_mod_prime_power(p, a - 1)
    assert (pair.nu1**2 + 1) % p**a == 0
    assert pair.nu1 % p ** (a - 1) in below.as_set()


def test_exhaustive_small_moduli():
    for p in (5, 13, 17, 29, 37, 41):
        pa = p
        for a in (1, 2):
            pa = p**a
            found = sorted(x for x in range(1, pa + 1) if (x * x + 1) % pa == 0)
            pair = roots_mod_prime_power(p, a)
            assert found == [pair.nu1, pair.nu2]


def test_root_stream_contents():
    items = list(root_stream(4, 14))
    assert [(it.p, it.nu) for it in items] == [(5, 2), (5, 3), (13, 5), (13, 8)]
    assert items[0].fraction == Fraction(2, 5)
    assert items[3].fraction == Fraction(8, 13)
    assert [(it.p, it.nu) for it in root_stream(1, 5)] == [(2, 1), (5, 2), (5, 3)]
    assert list(root_stream(5, 12)) == []


def test_root_stream_fraction_in_unit_interval():
    for item in root_stream(1, 500):
        assert 0 < item.fraction < 1
        assert item.fraction.denominator == item.p


def test_root_stream_matches_brute_force_on_every_small_window():
    for hi in range(41):
        for lo in range(hi + 1):
            want = [
                (p, x)
                for p in range(lo + 1, hi + 1)
                if sympy.isprime(p)
                for x in range(1, p)
                if (x * x + 1) % p == 0
            ]
            assert [(it.p, it.nu) for it in root_stream(lo, hi)] == want, (lo, hi)


def test_kernel_gives_the_smaller_root_for_every_prime_below_a_million():
    # the two roots are ±ν, so ν²+1 ≡ 0 and 0 < ν < p/2 pin the smaller one
    for p in (*(q for q in iter_primes(0, 10**6) if q % 4 == 1), 22000801, 48473881):
        nu = _sqrt_minus_one_value(p)
        assert (nu * nu + 1) % p == 0 and 0 < 2 * nu < p, p


def test_prime_roots_holds_only_primes_one_mod_four():
    for lo, hi in ((0, 1), (0, 2), (0, 5), (4, 5), (5, 13), (0, 10**4)):
        pairs = sorted(prime_roots(lo, hi))
        assert [p for p, _ in pairs] == [p for p in iter_primes(lo, hi) if p % 4 == 1]
        assert all(nu == _sqrt_minus_one_value(p) for p, nu in pairs)
    with pytest.raises(InvalidRangeError):
        prime_roots(10, 5)
    with pytest.raises(InvalidRangeError):
        prime_roots(-1, 5)


def _two_square_windows():
    yield 0, 10**6
    for k in (1, 2):  # the seams of the segments of a window from 0
        yield k * DEFAULT_SEGMENT - 3, k * DEFAULT_SEGMENT + 3
    yield 0, 2 * DEFAULT_SEGMENT + 3
    yield from ((m - 1, m) for m in range(1, 2001))
    yield from (
        (0, 0), (0, 1), (0, 4), (3, 4), (4, 5), (0, 5), (5, 13), (0, 100),
        (0, 10**5), (12345, 67890), (10**6, 3 * 10**6), (2**21, 2**22),
    )
    rng = random.Random(27)
    for _ in range(100):
        lo = rng.randrange(10**6)
        yield lo, lo + rng.randrange(5001)


def test_two_square_stream_matches_the_kernel():
    # the stream reads each root off a² + b² = p; the kernel raises a
    # non-residue to the (p − 1)/4-th power: two algorithms, one answer
    for lo, hi in _two_square_windows():
        pairs = sorted(prime_roots(lo, hi))
        assert len({p for p, _ in pairs}) == len(pairs), (lo, hi)
        want = [(p, _sqrt_minus_one_value(p)) for p in iter_primes(lo, hi) if p % 4 == 1]
        assert pairs == want, (lo, hi)
