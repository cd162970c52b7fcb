"""Exact p-adic orders and the log-lcm decomposition against factoring oracles."""

import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlcm.errors import InvalidRangeError, OracleCapError, QuadlcmError
from quadlcm.orders import (
    LOG_P_MAX_N,
    _blocks,
    _correction_partials,
    _ledger_partials,
    _log_P_dd,
    alpha_exact,
    alpha_star,
    beta_exact,
    beta_star,
    count_solutions_upto,
    decomposition_report,
    log_P,
    log_lcm_bruteforce,
    log_lcm_exact,
    order_profile,
    square_divisor_primes,
)
from quadlcm.roots import min_root, prime_roots, roots_mod_prime_power, sqrt_minus_one

# log of the exact integer L_10 = 1693047850, frozen from the bigint oracle
LOG_L10 = 21.24979620313569


def test_count_floor_semantics_hand_values():
    # roots of x²+1 mod 25 are 7 and 18; only i=7 lies below 10, and
    # truncation toward zero would report 2 instead of 1
    assert count_solutions_upto(5, 2, 10) == 1
    assert count_solutions_upto(5, 1, 10) == 4
    assert count_solutions_upto(5, 3, 10) == 0
    assert count_solutions_upto(13, 1, 10) == 2
    assert count_solutions_upto(13, 2, 10) == 0


@given(
    st.sampled_from([5, 13, 17, 29, 37, 41, 53]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=120)
def test_count_matches_direct_scan(p, a, n):
    pa = p**a
    want = sum(1 for i in range(1, n + 1) if (i * i + 1) % pa == 0)
    assert count_solutions_upto(p, a, n) == want


def brute_orders(p, n):
    """(alpha, beta) by factoring every i²+1 with sympy."""
    alpha = 0
    beta = 0
    for i in range(1, n + 1):
        e = sympy.multiplicity(p, i * i + 1) if (i * i + 1) % p == 0 else 0
        alpha += e
        beta = max(beta, e)
    return alpha, beta


def test_orders_against_factoring_oracle():
    for n in (1, 7, 23, 60):
        for p in sympy.primerange(2, 2 * n + 1):
            a_want, b_want = brute_orders(p, n)
            assert alpha_exact(p, n) == a_want, (p, n)
            assert beta_exact(p, n) == b_want, (p, n)
            want_star = sum(1 for i in range(1, n + 1) if (i * i + 1) % p == 0)
            assert alpha_star(p, n) == want_star, (p, n)
            assert beta_star(p, n) == (1 if want_star else 0), (p, n)


def test_two_adic_closed_form():
    for n in range(1, 200):
        assert alpha_exact(2, n) == (n + 1) // 2
        assert beta_exact(2, n) == 1


def test_high_primes_have_equal_orders():
    # 197 ≡ 1 mod 4 and 197 > 2n for n = 50; i=14 gives 197 itself
    assert alpha_exact(197, 50) == beta_exact(197, 50) == 1


def test_order_profile_consistency():
    prof = order_profile(5, 10)
    assert (prof.alpha, prof.beta, prof.alpha_star, prof.beta_star) == (5, 2, 4, 1)
    prof = order_profile(7, 100)
    assert (prof.alpha, prof.beta) == (0, 0)


def test_log_P_is_plain_sum():
    for n in (1, 3, 17, 1000):
        want = math.fsum(math.log(i * i + 1) for i in range(1, n + 1))
        assert log_P(n) == pytest.approx(want, rel=1e-15)
    assert log_P(1) == math.log(2)
    assert log_P(3) == pytest.approx(math.log(2 * 5 * 10), rel=1e-15)


# n past the running-sum range: a spread up to 1e7, the four lcm-1e7
# benchmark inputs and the residuals grid points
LOG_P_SAMPLES = [
    *range(3001, 10**7, 333_331),
    10**4, 10**5, 10**6, 10**7, 9_999_991, 10_000_019, 9_999_973,
]


def test_log_P_is_correctly_rounded():
    # the double nearest to a 50-digit value: a running sum of the logs up
    # to n = 3000, then the identity Π(i²+1) = |Γ(n+1+i)|² · sinh π / π
    with mpmath.workdps(50):
        acc = mpmath.mpf(0)
        for n in range(1, 3001):
            acc += mpmath.log(n * n + 1)
            assert log_P(n) == float(acc), n
        c = mpmath.log(mpmath.pi / mpmath.sinh(mpmath.pi))
        for n in LOG_P_SAMPLES:
            want = 2 * mpmath.re(mpmath.loggamma(mpmath.mpc(n + 1, 1))) - c
            assert log_P(n) == float(want), n


def test_log_lcm_exact_hand_value():
    ev = log_lcm_exact(10)
    assert ev.log_L == pytest.approx(LOG_L10, rel=1e-13)
    assert ev.log_L == ev.log_P - ev.correction
    assert ev.two_term == (5 - 1) * math.log(2.0)


# (correction, log_L) of log_lcm_exact, pinned bit for bit: n = 2**21 puts
# 2n on a block edge, and the last two span two DEFAULT_SEGMENT blocks
LCM_PINS = {
    1: (0.0, 0.6931471805599453),
    2: (0.0, 2.302585092994046),
    3: (2.3025850929940455, 2.3025850929940463),
    4: (2.3025850929940455, 5.135798437050262),
    10: (10.165851817003619, 21.249796203135688),
    1000: (4978.086895711635, 6847.470308163295),
    2**21: (26470939.478142515, 30387444.04990866),
    1_100_000: (13176005.614704281, 15227817.05893008),
}


@pytest.mark.parametrize("n", sorted(LCM_PINS))
def test_log_lcm_exact_is_pinned(n):
    ev = log_lcm_exact(n)
    assert (ev.correction, ev.log_L) == LCM_PINS[n]


def test_level_one_rule_above_n():
    # for n < p <= 2n only p itself can divide some i²+1 with i <= n, and
    # the smaller root ν <= p/2 <= n always does: α − β = [p − ν <= n]
    for n in range(1, 301):
        for p, nu in prime_roots(n, 2 * n):
            prof = order_profile(p, n)
            assert prof.alpha - prof.beta == (1 if nu and nu >= p - n else 0), (p, n)


def test_log_lcm_exact_matches_bruteforce():
    for n in (1, 2, 17, 100, 757):
        want = log_lcm_bruteforce(n, cap=1000)
        got = log_lcm_exact(n).log_L
        assert got == pytest.approx(want, rel=1e-12), n


def sieve_orders(n):
    """{q: (alpha, beta)} for every prime q dividing some i²+1 with i ≤ n,
    from a sieve of the values a[i] = i²+1 alone.

    When the scan reaches i, every prime with a root below i has been
    divided out, so a[i] is 1 or the one prime q whose smallest root is i
    (two such primes would exceed i²+1).  Dividing q out along i + kq and
    q − i + kq records every power of q.
    """
    a = [i * i + 1 for i in range(n + 1)]
    found = {}
    for i in range(1, n + 1):
        q = a[i]
        if q == 1:
            continue
        alpha = beta = 0
        for start in {i, q - i}:  # one progression for q = 2
            for j in range(start, n + 1, q):
                e = 0
                while a[j] % q == 0:
                    a[j] //= q
                    e += 1
                alpha += e
                beta = max(beta, e)
        found[q] = (alpha, beta)
    return found


def test_orders_match_polynomial_sieve_at_scale():
    n = 10**5
    found = sieve_orders(n)
    corr = math.fsum((al - be) * math.log(q) for q, (al, be) in found.items())
    assert corr == pytest.approx(log_lcm_exact(n).correction, rel=1e-13)
    for q in sympy.primerange(2, 2 * n + 1):
        prof = order_profile(q, n)
        assert found.pop(q, (0, 0)) == (prof.alpha, prof.beta), q
    # past 2n every prime divides exactly one i²+1 of the range, once
    assert set(found.values()) == {(1, 1)}


def test_bruteforce_cap():
    with pytest.raises(OracleCapError):
        log_lcm_bruteforce(501, cap=500)
    with pytest.raises(InvalidRangeError):
        log_lcm_bruteforce(0)


def test_preconditions():
    with pytest.raises(InvalidRangeError):
        log_lcm_exact(0)
    with pytest.raises(InvalidRangeError):
        alpha_exact(5, 0)
    with pytest.raises(InvalidRangeError):
        decomposition_report(1)


@contextmanager
def _time_limit(seconds):
    """Turn a hang into a failure: SIGALRM raises TimeoutError."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=0, max_value=6),
)
@example(9, 10, 1)
@example(1, 10, 1)
@example(21, 10, 2)
@example(4, 10, 1)
@example(0, 10, 1)
@example(-3, 10, 1)
@example(999983, 10**4, 3)
@settings(max_examples=150, deadline=1000)
def test_entry_points_return_or_raise_in_bounded_time(p, n, a):
    calls = [
        (sqrt_minus_one, (p,)),
        (roots_mod_prime_power, (p, a)),
        (min_root, (p, a)),
        (count_solutions_upto, (p, a, n)),
        (order_profile, (p, n)),
        (alpha_exact, (p, n)),
        (beta_exact, (p, n)),
        (alpha_star, (p, n)),
        (beta_star, (p, n)),
    ]
    with _time_limit(2.0):
        for fn, args in calls:
            try:
                fn(*args)
            except QuadlcmError:
                pass


@pytest.mark.parametrize("n", [1, 2, 22, 23, 24, 3000, 10**7, 2**100, LOG_P_MAX_N - 1])
def test_log_P_dd_is_within_its_stated_bound(n):
    # the double-word value before rounding, to the 1e-27 its docstring
    # derives: rounding alone hides errors far larger than that
    with mpmath.workdps(60):
        c = mpmath.log(mpmath.pi / mpmath.sinh(mpmath.pi))
        want = 2 * mpmath.re(mpmath.loggamma(mpmath.mpc(n + 1, 1))) - c
        want = Fraction(mpmath.nstr(want, 55))
    hi, lo = _log_P_dd(n)
    assert abs(Fraction(hi) + Fraction(lo) - want) <= want * Fraction(1, 10**27)


@given(st.integers(min_value=-10, max_value=10**400))
@example(0)
@example(1)
@example(LOG_P_MAX_N - 1)
@example(LOG_P_MAX_N)
@settings(max_examples=60, deadline=None)
def test_log_P_returns_a_finite_float_or_raises_in_bounded_time(n):
    with _time_limit(2.0):
        if 1 <= n < LOG_P_MAX_N:
            assert math.isfinite(log_P(n))
        else:
            with pytest.raises(InvalidRangeError, match=r"1 <= n < 2\*\*511"):
                log_P(n)


def test_worker_count_never_changes_results():
    one = log_lcm_exact(3000, workers=1)
    two = log_lcm_exact(3000, workers=2)
    assert one == two
    assert decomposition_report(500, workers=1) == decomposition_report(500, workers=2)
    # two blocks, so workers > 1 opens a pool; two blocks reduced in the
    # wrong order can still round to the same sum, so compare the blocks too
    n = 1_100_000
    assert len(_blocks(n)) == 2
    assert log_lcm_exact(n, workers=1) == log_lcm_exact(n, workers=2)
    assert _correction_partials(n, 1) == _correction_partials(n, 2)
    assert decomposition_report(n, workers=1) == decomposition_report(n, workers=2)
    assert _ledger_partials(n, 1) == _ledger_partials(n, 2)


def test_decomposition_identity_and_beta_star():
    rep = decomposition_report(10)
    assert rep.identity_residue == 0
    # beta* covers the medium range only: p ∈ {5, 13, 17} at n = 10
    assert rep.beta_star_sum == pytest.approx(math.log(5 * 13 * 17), rel=1e-14)
    assert rep.beta_star_reference == 10.0
    rep = decomposition_report(300)
    assert rep.identity_residue == 0
    assert rep.bad_primes == tuple(square_divisor_primes(300))


def test_decomposition_recombines_to_correction():
    for n in (10, 100, 1500):
        rep = decomposition_report(n)
        ev = log_lcm_exact(n)
        recombined = (
            rep.two_correction
            + rep.small_sum
            - (rep.medium_high_sum + rep.beta_star_sum - rep.alpha_star_sum)
        )
        assert recombined == pytest.approx(ev.correction, rel=1e-12, abs=1e-9)


def test_square_divisor_primes_hand_values():
    assert square_divisor_primes(3) == []
    assert square_divisor_primes(7) == [5]
    assert square_divisor_primes(10) == [5]
    assert square_divisor_primes(100) == [29]


def test_square_divisor_primes_against_sympy():
    for n in (20, 57, 120, 200):
        want = set()
        for i in range(1, n + 1):
            for p, e in sympy.factorint(i * i + 1).items():
                if e >= 2 and p % 4 == 1 and p**3 >= n * n and p <= 2 * n:
                    want.add(int(p))
        assert square_divisor_primes(n) == sorted(want), n
