"""Segmented sieve, prime counts and Chebyshev psi against sympy/bigint oracles."""

import math
import tracemalloc
from collections import deque

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlcm.errors import InvalidRangeError
from quadlcm import primes
from quadlcm.primes import (
    COUNTS_MAX_N,
    DEFAULT_SEGMENT,
    PSI_MAX_N,
    _sieve_window,
    _small_primes,
    chebyshev_psi,
    count_primes,
    is_prime,
    iter_primes,
    iter_primes_one_mod_four,
    pi1_range,
    prime_counts,
)
from quadlcm.summation import log_of_bigint


def sympy_primes(lo, hi):
    return tuple(sympy.primerange(lo + 1, hi + 1))


@given(
    st.integers(min_value=0, max_value=50_000),
    st.integers(min_value=0, max_value=3_000),
)
@settings(max_examples=80)
def test_iter_primes_matches_sympy(lo, width):
    hi = lo + width
    assert tuple(iter_primes(lo, hi)) == sympy_primes(lo, hi)


@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=0, max_value=2_000),
    st.integers(min_value=0, max_value=2_000),
)
@settings(max_examples=60)
def test_window_seams_are_invisible(lo, w1, w2):
    mid = lo + w1
    hi = mid + w2
    glued = tuple(iter_primes(lo, mid)) + tuple(iter_primes(mid, hi))
    assert glued == tuple(iter_primes(lo, hi))


def test_small_segment_size_changes_nothing():
    want = sympy_primes(0, 10_000)
    assert tuple(iter_primes(0, 10_000, segment=64)) == want
    assert tuple(iter_primes(0, 10_000, segment=DEFAULT_SEGMENT)) == want


def test_small_primes_match_sympy():
    # the base-prime table is itself one sieve window; 4472 = isqrt(2·10⁷)
    # is the base of the sieve to 2n at n = 10⁷
    for limit in [*range(2001), 4472, 4473, 4474, 10**5]:
        assert _small_primes(limit) == sympy_primes(0, limit), limit


def test_iter_primes_rejects_bad_ranges():
    with pytest.raises(InvalidRangeError):
        list(iter_primes(10, 5))
    with pytest.raises(InvalidRangeError):
        list(iter_primes(-1, 10))


def test_is_prime_matches_sieve_and_sympy():
    sieved = set(iter_primes(0, 20_000))
    assert [n for n in range(-5, 20_001) if is_prime(n)] == sorted(sieved)
    for n in (2**61 - 1, 10**18 + 9, 10**24 + 7, 561, 3215031751, 2**61 + 1):
        assert is_prime(n) == sympy.isprime(n)
    # strong pseudoprime to every prime base up to 37: base 41 exposes it
    psi12 = 318665857834031151167461
    assert not sympy.isprime(psi12)
    assert not is_prime(psi12)


def test_prime_counts_against_sympy():
    for n in (1, 2, 10, 100, 1229, 10_000):
        pc = prime_counts(n)
        assert pc.pi == sympy.primepi(n)
        want1 = sum(1 for p in sympy.primerange(2, n + 1) if p % 4 == 1)
        assert pc.pi1 == want1


def test_pi1_range_windows():
    assert pi1_range(0, 10) == 1  # just 5
    assert pi1_range(10, 30) == 3  # 13, 17, 29
    assert pi1_range(13, 30) == 2  # half-open at the left: 13 excluded, 17, 29
    assert pi1_range(5, 5) == 0
    # each start parity and residue of the first odd slot, and a segment edge
    for lo in range(7):
        for hi in (lo, lo + 1, lo + 2, 100, DEFAULT_SEGMENT + 1000):
            assert pi1_range(lo, hi) == len(_filtered(lo, hi)), (lo, hi)


def test_chebyshev_psi_small_values():
    assert chebyshev_psi(1) == 0.0
    assert chebyshev_psi(2) == math.log(2)
    # psi(10) = log lcm(1..10) = log 2520
    assert chebyshev_psi(10) == pytest.approx(math.log(2520), rel=1e-15)


def test_chebyshev_psi_equals_log_lcm_oracle():
    acc = 1
    for n in range(1, 1001):
        acc = math.lcm(acc, n)
    assert chebyshev_psi(1000) == pytest.approx(log_of_bigint(acc), rel=1e-12)


def test_chebyshev_psi_counts_prime_powers_exactly():
    # psi(100) = sum over p^k <= 100 of log p; build it from sympy directly
    total = 0.0
    for p in sympy.primerange(2, 101):
        k = 1
        while p ** (k + 1) <= 100:
            k += 1
        total += k * math.log(p)
    assert chebyshev_psi(100) == pytest.approx(total, rel=1e-14)


def test_psi_near_n_at_scale():
    n = 10**6
    assert chebyshev_psi(n) == pytest.approx(n, rel=2e-3)


def _filtered(lo, hi, segment=DEFAULT_SEGMENT):
    return [p for p in iter_primes(lo, hi, segment) if p % 4 == 1]


def test_one_mod_four_view_equals_filtered_primes():
    # each start parity and residue of the first odd slot, small segments
    for lo in range(7):
        for hi in (lo, lo + 1, lo + 2, 100, 1000):
            want = _filtered(lo, hi)
            assert list(iter_primes_one_mod_four(lo, hi, segment=64)) == want, (lo, hi)
            assert list(iter_primes_one_mod_four(lo, hi)) == want, (lo, hi)
    # across a DEFAULT_SEGMENT edge, from either side of it
    edge = DEFAULT_SEGMENT
    for lo in (edge - 1000, edge - 999, edge - 1):
        assert list(iter_primes_one_mod_four(lo, edge + 1000)) == _filtered(lo, edge + 1000)
    # starts at the seam meet every residue mod 4 of the first slot of both
    # windows it joins
    for lo in range(edge - 4, edge + 5):
        assert list(iter_primes_one_mod_four(lo, 2 * edge + 1000)) == _filtered(
            lo, 2 * edge + 1000, 10**5
        ), lo
    # the reference's seams, at multiples of 10⁵, never meet the view's at
    # multiples of 2²¹; segment 64 is covered by the small cases above
    assert list(iter_primes_one_mod_four(0, 2 * edge)) == _filtered(0, 2 * edge, 10**5)


def test_mask_count_equals_prime_counts():
    # count_primes and prime_counts both count set bytes of the mask; the
    # reference is the walk that compresses by it, and its 1 mod 4 filter
    for n in (0, 1, 2, 3, 10, 100, 1229, 10_000, DEFAULT_SEGMENT + 7):
        walk = list(iter_primes(0, n))
        want = (len(walk), sum(1 for p in walk if p % 4 == 1))
        pc = prime_counts(n)
        assert (pc.pi, pc.pi1) == want, n
        assert count_primes(0, n) == want[0], n
        # 64 up to 10⁴ (156 windows); 10⁵ at 2²¹ + 7, seams away from 2²¹
        assert count_primes(0, n, segment=64 if n <= 10_000 else 10**5) == want[0], n
    assert count_primes(1, 2) == 1 and count_primes(2, 2) == 0
    assert count_primes(10, 30) == 6
    with pytest.raises(InvalidRangeError):
        count_primes(10, 5)
    with pytest.raises(InvalidRangeError):
        count_primes(-1, 5)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_mask_is_alive_at_a_time():
    # walking three segments peaks no higher than sieving one of them: a
    # segment's mask is freed before the next one is sieved; the 1 mod 4
    # walk holds the 1 mod 4 mask, half the size of the odd one
    segment = 1 << 18
    hi = 3 * segment
    base = _small_primes(math.isqrt(hi))
    one = _traced_peak(lambda: _sieve_window(0, segment, base))
    assert _traced_peak(lambda: deque(iter_primes(0, hi, segment), 0)) < 1.1 * one
    assert _traced_peak(lambda: deque(iter_primes_one_mod_four(0, hi, segment), 0)) < 0.6 * one
    assert _traced_peak(lambda: count_primes(0, hi, segment)) < 1.1 * one


def test_psi_and_counts_refuse_n_past_their_ceilings_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started past the ceiling")

    for name in ("_counts", "iter_primes", "_small_primes"):
        monkeypatch.setattr(primes, name, refuse)
    for fn, ceiling in ((chebyshev_psi, PSI_MAX_N), (prime_counts, COUNTS_MAX_N)):
        message = f"at most the work ceiling {ceiling}, got n = {ceiling + 1}"
        with pytest.raises(InvalidRangeError, match=message):
            fn(ceiling + 1)
