"""Exact p-adic orders and the log-lcm decomposition against factoring oracles."""

import dataclasses
import hashlib
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
from quadlcm import orders
from quadlcm.orders import (
    LOG_P_MAX_N,
    MAX_N,
    _blocks,
    _correction_block,
    _correction_partials,
    _ledger_partials,
    _log_P_decimal,
    _map_blocks,
    _order_counts,
    _square_census,
    _two_term,
    alpha_exact,
    beta_exact,
    count_solutions_upto,
    decomposition_report,
    log_P,
    log_lcm_bruteforce,
    log_lcm_exact,
    order_profile,
    square_divisor_primes,
)
from quadlcm.primes import iter_primes
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
            prof = order_profile(p, n)
            assert prof.alpha_star == want_star, (p, n)
            assert prof.beta_star == (1 if want_star else 0), (p, n)


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
    # the smaller root ν <= p/2 <= n always does: α − β = [p − ν <= n];
    # every prime is walked, p = 2 and p ≡ 3 mod 4 included, and the
    # narrowed stream must hold exactly the p ≡ 1 mod 4 among them
    for n in range(1, 301):
        roots = dict(prime_roots(n, 2 * n))
        for p in iter_primes(n, 2 * n):
            prof = order_profile(p, n)
            nu = roots.pop(p, None)
            assert (nu is not None) == (p % 4 == 1), (p, n)
            want = 1 if nu is not None and nu >= p - n else 0
            assert prof.alpha - prof.beta == want, (p, n)
        assert roots == {}, n


def test_fold_coefficient_matches_order_profile_exhaustively():
    # a window (p − 1, p] holds p alone, and fsum of one term is the term,
    # so the fold's value there is its coefficient times log p, exactly.
    # At 10⁵ only the primes p ≤ √(2n) lift, so only they are compared.
    cases = [(n, iter_primes(0, 2 * n)) for n in range(1, 301)]
    cases.append((10**5, iter_primes(0, math.isqrt(2 * 10**5))))
    for n, ps in cases:
        for p in ps:
            if p % 4 != 1:
                continue
            prof = order_profile(p, n)
            got = _correction_block((p - 1, p, n))
            assert got == (prof.alpha - prof.beta) * math.log(p), (p, n)


def test_log_lcm_exact_matches_bruteforce():
    for n in (1, 2, 17, 100, 757):
        want = log_lcm_bruteforce(n, cap=1000)
        got = log_lcm_exact(n).log_L
        assert got == pytest.approx(want, rel=1e-12), n


def sieve_orders(n):
    """{q: (alpha, beta, alpha_star)} for every prime q dividing some i²+1
    with i ≤ n, from a sieve of the values a[i] = i²+1 alone.

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
        alpha = beta = alpha_star = 0
        for start in {i, q - i}:  # one progression for q = 2
            for j in range(start, n + 1, q):
                e = 0
                while a[j] % q == 0:
                    a[j] //= q
                    e += 1
                alpha += e
                beta = max(beta, e)
                alpha_star += 1
        found[q] = (alpha, beta, alpha_star)
    return found


def test_orders_match_polynomial_sieve_at_scale():
    n = 10**5
    found = sieve_orders(n)
    corr = math.fsum((al - be) * math.log(q) for q, (al, be, _) in found.items())
    assert corr == pytest.approx(log_lcm_exact(n).correction, rel=1e-13)
    for q in sympy.primerange(2, 2 * n + 1):
        prof = order_profile(q, n)
        assert found.pop(q, (0, 0, 0)) == (prof.alpha, prof.beta, prof.alpha_star), q
    # past 2n every prime divides exactly one i²+1 of the range, once
    assert set(found.values()) == {(1, 1, 1)}


def test_order_rule_matches_polynomial_sieve():
    # _order_counts against the sieve, which never lifts a root.  Primes up
    # to 4n also meet the level-1 stop: past 2n the smaller root can exceed
    # n, or equal it when p | n²+1.  At 10⁴, 5 and 13 meet three levels or more.
    for n in (*range(1, 301), 10**4):
        found = sieve_orders(n)
        for p, nu in prime_roots(0, 4 * n):
            assert _order_counts(p, n, nu) == found.get(p, (0, 0, 0)), (p, n)
    assert found[5][1] >= 3 and found[13][1] >= 3


def test_square_census_matches_the_lift_rule():
    # the census finds its primes from continued fractions alone; the lift
    # rule takes a Hensel step at every prime of (p0, n]
    for n in range(1, 2001):
        p0, census = _square_census(n)
        assert p0 == int(n**0.8), n
        lifted = {p for p, nu in prime_roots(p0, n) if _order_counts(p, n, nu)[1] >= 2}
        assert census == lifted, n


def test_square_census_matches_polynomial_sieve():
    n = 10**5
    p0, census = _square_census(n)
    found = sieve_orders(n)
    assert census == {q for q, (_, beta, _) in found.items() if beta >= 2 and p0 < q <= n}


def test_square_census_is_pinned():
    # 8119² + 1 = 2 · 5741²
    assert _square_census(10**4) == (1584, frozenset({5741}))
    assert _square_census(10**5)[1] == frozenset({10301, 33461})


def test_log_lcm_exact_reads_neither_order_counts_nor_the_census(monkeypatch):
    # the lcm fold sums N_q − 1 over the levels q ≤ 2n; beta is never read
    def refuse(*args):
        raise AssertionError("the lcm path read beta")

    monkeypatch.setattr(orders, "_order_counts", refuse)
    monkeypatch.setattr(orders, "_square_census", refuse)
    ev = log_lcm_exact(10**5)
    assert (ev.correction, ev.log_L) == (957900.5334763639, 1144699.2121582786)


def test_folds_take_order_counts_only_below_p0_and_at_the_census(monkeypatch):
    # `square_divisor_primes` is the one fold that reads beta: it lifts the
    # medium primes up to p0 and takes those above p0 from the census.
    # Neither block fold calls `_order_counts` (above and below), so the
    # decomposition reads it only through its bad primes.
    n = 10**5
    p0, census = _square_census(n)
    seen = []
    counts = orders._order_counts

    def recorded(p, n, nu):
        seen.append(p)
        return counts(p, n, nu)

    monkeypatch.setattr(orders, "_order_counts", recorded)
    bad = square_divisor_primes(n)
    lifted = [p for p, _ in prime_roots(0, min(n, p0)) if p**3 >= n * n]
    assert len(set(seen)) == len(seen)
    assert sorted(seen) == sorted(lifted)
    assert len(seen) == 451
    assert set(census) <= set(bad) and not set(census) & set(seen)
    seen.clear()
    decomposition_report(n)
    assert sorted(seen) == sorted(lifted)


def test_ledger_blocks_read_neither_order_counts_nor_the_census(monkeypatch):
    # the ledger sums the lcm fold's level excess; beta_star is 1 at every
    # stream prime, and the bad primes come from `square_divisor_primes`
    def refuse(*args):
        raise AssertionError("the ledger blocks read beta")

    monkeypatch.setattr(orders, "_order_counts", refuse)
    monkeypatch.setattr(orders, "_square_census", refuse)
    assert _ledger_partials(10**5, 1) == [
        (573599.6679375746, 0.0, 98605.83751766937, 448250.03717564186,
         448729.3341028841, 0)
    ]


def test_no_medium_prime_meets_a_second_level():
    # every medium prime has p² > 2n (p ≥ n^(2/3) for n > 8, p ≥ 5 for
    # n ≤ 12), so its coefficient is N_p − 1 = alpha_star − beta_star
    for n in (*range(2, 2001), 10**5):
        assert decomposition_report(n).medium_high_sum == 0.0, n


def test_the_ledger_and_square_divisor_census_read_the_census(monkeypatch):
    # An empty census takes 10301 and 33461 at beta = 1.  log L_n cannot
    # tell: at p² > 2n every level past the first has one root ≤ n, so it
    # adds one to alpha and one to beta, and alpha − beta = alpha_star − 1
    # whatever beta is.  `square_divisor_primes` reads beta itself, and the
    # decomposition takes its bad primes from it, so both lose the two.
    # (correction, log_L) was pinned before the census.
    lcm_pin = (957900.5334763639, 1144699.2121582786)
    without = (2689, 2909, 2917, 3137, 3793, 4289, 5741)
    ev = log_lcm_exact(10**5)
    assert (ev.correction, ev.log_L) == lcm_pin
    assert decomposition_report(10**5).bad_primes == (*without, 10301, 33461)
    monkeypatch.setattr(orders, "_square_census", lambda n: (int(n**0.8), frozenset()))
    ev = log_lcm_exact(10**5)
    assert (ev.correction, ev.log_L) == lcm_pin
    assert decomposition_report(10**5).bad_primes == without
    assert square_divisor_primes(10**5) == list(without)


def test_bruteforce_cap():
    with pytest.raises(OracleCapError):
        log_lcm_bruteforce(501, cap=500)
    with pytest.raises(InvalidRangeError):
        log_lcm_bruteforce(0)


def test_bruteforce_refuses_n_past_its_ceiling_after_the_cap():
    # the cap is checked first, so an n past both is still a cap error
    ceiling = orders.ORACLE_MAX_N
    with pytest.raises(OracleCapError):
        log_lcm_bruteforce(10 * ceiling)
    message = f"at most the work ceiling {ceiling}, got n = {ceiling + 1}"
    with pytest.raises(InvalidRangeError, match=message):
        log_lcm_bruteforce(ceiling + 1, cap=10 * ceiling)


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
@example(5, 10, 10**7)  # refused before 5^(10^7) is built
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
    ]
    with _time_limit(2.0):
        for fn, args in calls:
            try:
                fn(*args)
            except QuadlcmError:
                pass


@pytest.mark.parametrize("n", [1, 2, 22, 23, 24, 3000, 10**7, 2**100, LOG_P_MAX_N - 1])
def test_log_P_dd_is_within_its_stated_bound(n):
    # the 40-digit value before rounding, to the 1e-27 its docstring
    # derives: rounding alone hides errors far larger than that
    with mpmath.workdps(60):
        c = mpmath.log(mpmath.pi / mpmath.sinh(mpmath.pi))
        want = 2 * mpmath.re(mpmath.loggamma(mpmath.mpc(n + 1, 1))) - c
        want = Fraction(mpmath.nstr(want, 55))
    assert abs(Fraction(_log_P_decimal(n)) - want) <= want * Fraction(1, 10**27)


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


def test_lcm_correction_is_one_correctly_rounded_sum(monkeypatch):
    # a left-to-right sum would lose the 1.0 against 1e16
    partials = [1e16, 1.0, -1e16]
    monkeypatch.setattr(orders, "_correction_partials", lambda n, workers: partials)
    assert log_lcm_exact(10).correction == math.fsum([_two_term(10), *partials])


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


def test_folds_refuse_n_past_the_ceiling_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started past the ceiling")

    for name in ("log_P", "prime_roots", "_map_blocks"):
        monkeypatch.setattr(orders, name, refuse)
    message = f"at most the work ceiling {MAX_N}, got n = {MAX_N + 1}"
    for fold in (log_lcm_exact, decomposition_report, square_divisor_primes):
        with pytest.raises(InvalidRangeError, match=message):
            fold(MAX_N + 1)


@pytest.mark.parametrize("workers", [0, -1])
def test_library_refuses_a_worker_count_below_one(workers):
    with pytest.raises(InvalidRangeError, match="worker count must be >= 1"):
        log_lcm_exact(1000, workers=workers)
    with pytest.raises(InvalidRangeError, match="worker count must be >= 1"):
        decomposition_report(1000, workers=workers)


@pytest.mark.parametrize(
    ("cpus", "workers", "blocks", "want"),
    [
        (2, 1000, 954, [2]),  # lcm --n 10**9 --workers 1000 on 2 CPUs
        (8, 3, 954, [3]),
        (8, 1000, 5, [5]),
        (None, 1000, 954, []),  # unknown CPU count: serial
        (1, 2, 954, []),
    ],
)
def test_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, workers, blocks, want):
    import multiprocessing
    import os

    opened = []

    class SerialPool:
        """Records `processes` and maps in this process: starts no worker."""

        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    assert _map_blocks(abs, range(-blocks, 0), workers) == list(range(blocks, 0, -1))
    assert opened == want


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


# every field of decomposition_report pinned with ==; at 1_100_000 the
# bad primes are pinned by their count, their ends and a sha256 of the tuple
DECOMPOSITION_PINS = {
    2: (0.0, 0.0, 0.0, 0.0, 0.0, (), 2.0, 0.0, 0),
    10: (
        0.0, 0.0, 7.007600613951853, 14.40086370871569, 2.772588722239781,
        (5,), 10.0, 15.86362183801, 0,
    ),
    1000: (
        2751.1962719689136, 0.0, 908.6410805571197, 2789.651261200429,
        345.8804430994127, (101,), 1000.0, 2851.1323894295992, 0,
    ),
    1_100_000: (
        8048082.590711403, 0.0, 1093460.1801428988, 5840152.947974987,
        381230.25616078934,
        (13, 12101, 53353,
         "a2cd45d6481035bb41c7c8fd7e3a473cdeac7c0e56f080cc727fb5392f5351de"),
        1100000.0, 5840535.827274795, 0,
    ),
}


@pytest.mark.parametrize("n", sorted(DECOMPOSITION_PINS))
def test_decomposition_report_is_pinned(n):
    rep = decomposition_report(n)
    fields = dataclasses.astuple(rep)
    assert fields[0] == n
    got = list(fields[1:])
    bad = rep.bad_primes
    if len(bad) > 3:
        digest = hashlib.sha256(repr(bad).encode()).hexdigest()
        got[5] = (len(bad), bad[0], bad[-1], digest)
    assert tuple(got) == DECOMPOSITION_PINS[n]


def test_square_divisor_primes_is_pinned():
    assert square_divisor_primes(10**5) == [
        2689, 2909, 2917, 3137, 3793, 4289, 5741, 10301, 33461,
    ]
