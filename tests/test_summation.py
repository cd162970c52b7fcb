"""Double-double arithmetic against exact rational oracles."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlcm import orders
from quadlcm.asymptotics import character_log_sum, mertens_log_sum
from quadlcm.discrepancy import centered_fraction_sum
from quadlcm.primes import chebyshev_psi
from quadlcm.summation import (
    DD_ONE,
    DD_ZERO,
    GAMMA_DD,
    HALF_LOG_2PI_DD,
    LN2_DD,
    LOG_PI_OVER_SINH_PI_DD,
    PI_DD,
    dd_add,
    dd_atan_small,
    dd_div,
    dd_from_fraction,
    dd_from_int,
    dd_log_dyadic,
    dd_mul,
    dd_neg,
    dd_pow_int,
    dd_sub,
    dd_to_float,
    log_of_bigint,
    quick_two_sum,
    two_prod,
    two_sum,
)

import mpmath

# 45-digit rational references straight from the oracle
with mpmath.workdps(60):
    LN2_REF = Fraction(mpmath.nstr(mpmath.log(2), 45))
    PI_REF = Fraction(mpmath.nstr(mpmath.pi + 0, 45))
    GAMMA_REF = Fraction(mpmath.nstr(mpmath.euler + 0, 45))
    LN10_REF = Fraction(mpmath.nstr(mpmath.log(10), 45))
    LN3_REF = Fraction(mpmath.nstr(mpmath.log(3), 45))
    HALF_LOG_2PI_REF = Fraction(mpmath.nstr(mpmath.log(2 * mpmath.pi) / 2, 45))
    LOG_PI_OVER_SINH_PI_REF = Fraction(
        mpmath.nstr(mpmath.log(mpmath.pi / mpmath.sinh(mpmath.pi)), 45)
    )


def as_fraction(dd):
    return Fraction(dd[0]) + Fraction(dd[1])


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)


@given(finite, finite)
def test_two_sum_is_exact(a, b):
    hi, lo = two_sum(a, b)
    assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)
    assert hi == a + b


@given(finite, finite)
def test_quick_two_sum_matches_two_sum_when_ordered(a, b):
    if abs(a) < abs(b):
        a, b = b, a
    assert quick_two_sum(a, b) == two_sum(a, b)


# Dekker's product is exact only while the product and its error term stay
# clear of the subnormal range, so keep magnitudes inside [1e-140, 1e140]
prod_operand = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e140, max_value=1e140
).filter(lambda x: x == 0.0 or abs(x) > 1e-140)


@given(prod_operand, prod_operand)
def test_two_prod_is_exact(a, b):
    hi, lo = two_prod(a, b)
    assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)


small_dd = st.builds(
    lambda f: dd_from_fraction(f),
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)),
)


@given(small_dd, small_dd)
def test_dd_add_error_within_dd_resolution(x, y):
    z = dd_add(x, y)
    exact = as_fraction(x) + as_fraction(y)
    assert abs(as_fraction(z) - exact) <= abs(exact) * Fraction(1, 10**30) + Fraction(
        1, 10**300
    )


@given(small_dd, small_dd)
def test_dd_mul_error_within_dd_resolution(x, y):
    z = dd_mul(x, y)
    exact = as_fraction(x) * as_fraction(y)
    assert abs(as_fraction(z) - exact) <= abs(exact) * Fraction(1, 10**30) + Fraction(
        1, 10**300
    )


def test_dd_div_recovers_rationals():
    x = dd_from_int(1)
    y = dd_from_int(3)
    q = dd_div(x, y)
    assert abs(as_fraction(q) - Fraction(1, 3)) < Fraction(1, 10**31)
    back = dd_mul(q, y)
    assert abs(as_fraction(back) - 1) < Fraction(1, 10**30)


def test_dd_sub_and_neg():
    x = dd_from_fraction(Fraction(7, 10))
    assert as_fraction(dd_sub(x, x)) == 0
    assert as_fraction(dd_neg(x)) == -as_fraction(x)


def test_dd_constants_against_references():
    assert abs(as_fraction(LN2_DD) - LN2_REF) < Fraction(1, 10**31)
    assert abs(as_fraction(PI_DD) - PI_REF) < Fraction(1, 10**30)
    assert abs(as_fraction(GAMMA_DD) - GAMMA_REF) < Fraction(1, 10**31)
    assert abs(as_fraction(HALF_LOG_2PI_DD) - HALF_LOG_2PI_REF) < Fraction(1, 10**31)
    assert abs(
        as_fraction(LOG_PI_OVER_SINH_PI_DD) - LOG_PI_OVER_SINH_PI_REF
    ) < Fraction(1, 10**31)
    assert DD_ZERO == (0.0, 0.0)
    assert DD_ONE == (1.0, 0.0)


def test_dd_pow_int():
    x = dd_from_fraction(Fraction(3, 7))
    p = dd_pow_int(x, 5)
    assert abs(as_fraction(p) - Fraction(3, 7) ** 5) < Fraction(1, 10**32)
    inv = dd_pow_int(x, -3)
    assert abs(as_fraction(inv) - Fraction(7, 3) ** 3) < Fraction(1, 10**28)
    assert dd_pow_int(x, 0) == DD_ONE


def test_dd_from_fraction_splits_exactly_when_representable():
    f = Fraction(1, 3)
    hi, lo = dd_from_fraction(f)
    assert hi == float(f)
    assert Fraction(lo) == Fraction(float(f - Fraction(hi)))


@pytest.mark.parametrize(
    "num,denom_pow2,ref",
    [
        (2, 0, LN2_REF),
        (3, 0, LN3_REF),
        (10, 0, LN10_REF),
        (1, 0, Fraction(0)),
        (10**9, 0, 9 * LN10_REF),
        (3**20, 0, 20 * LN3_REF),
        (161, 2, None),  # log(161/4) checked against composition below
    ],
)
def test_dd_log_dyadic_high_precision(num, denom_pow2, ref):
    got = as_fraction(dd_log_dyadic(num, denom_pow2))
    if ref is None:
        ref = (
            as_fraction(dd_log_dyadic(161))
            - 2 * LN2_REF
        )
    assert abs(got - ref) < Fraction(1, 10**29)


@pytest.mark.parametrize("den", [3, 24, 1000, 10**7])
def test_dd_atan_small_high_precision(den):
    with mpmath.workdps(60):
        ref = Fraction(mpmath.nstr(mpmath.atan(mpmath.mpf(1) / den), 45))
    got = as_fraction(dd_atan_small(dd_from_fraction(Fraction(1, den))))
    assert abs(got - ref) < ref * Fraction(1, 10**30)


@pytest.mark.parametrize(
    "num, denom_pow2",
    [(2**1024 - 1, 0), (2**1024, 0), (2**1100 + 1, 0), (10**400, 0), (3**5000 + 7, 13)],
)
def test_dd_log_dyadic_past_the_double_range(num, denom_pow2):
    # float(num) overflows from 2^1024 on, and 2^-e underflows past e = 1074
    with mpmath.workdps(60):
        ref = Fraction(mpmath.nstr(mpmath.log(num) - denom_pow2 * mpmath.log(2), 55))
    got = as_fraction(dd_log_dyadic(num, denom_pow2))
    assert abs(got - ref) < ref * Fraction(1, 10**30)


def test_dd_log_dyadic_rejects_nonpositive():
    with pytest.raises(Exception):
        dd_log_dyadic(0)
    with pytest.raises(Exception):
        dd_log_dyadic(-5)


def test_log_of_bigint_matches_math_log_in_range():
    for v in (1, 2, 97, 10**15):
        assert log_of_bigint(v) == pytest.approx(math.log(v), rel=1e-15)


def test_log_of_bigint_beyond_float_range():
    import mpmath

    v = 7**600  # far above the float overflow threshold
    with mpmath.workdps(50):
        ref = Fraction(mpmath.nstr(600 * mpmath.log(7), 40))
    assert abs(Fraction(log_of_bigint(v)) - ref) < Fraction(1, 10**10)


@given(st.integers(min_value=1, max_value=10**40))
@settings(max_examples=60)
def test_log_of_bigint_accuracy_property(v):
    # compare against dd_log_dyadic on the same integer
    ref = as_fraction(dd_log_dyadic(v))
    assert abs(Fraction(log_of_bigint(v)) - ref) <= max(ref, 1) * Fraction(1, 10**13)


def _mertens_terms(x):
    return (math.log(p) / (p - 1) for p in sympy.primerange(3, x + 1))


def _character_terms(x):
    for p in sympy.primerange(3, x + 1):
        t = math.log(p) / (p - 1)
        yield t if p % 4 == 1 else -t


def _psi_terms(n):
    for p in sympy.primerange(2, n + 1):
        k = 1
        while p ** (k + 1) <= n:
            k += 1
        yield k * math.log(p)


def _centered_terms(n):
    yield 0.5 - ((n - 1) % 2) * 0.5
    for p in sympy.primerange(5, 2 * n + 1):
        if p % 4 == 1:
            nu = next(x for x in range(1, p) if (x * x + 1) % p == 0)
            yield (p - (n - nu) % p - (n + nu) % p) / p


@pytest.mark.parametrize(
    "fn, terms, arg",
    [
        pytest.param(fn, terms, arg, id=f"{fn.__name__}-{arg}")
        for fn, terms, args in (
            (mertens_log_sum, _mertens_terms, (10, 1000, 30011)),
            (character_log_sum, _character_terms, (10, 1000, 30011)),
            (chebyshev_psi, _psi_terms, (1, 2, 10, 1024, 30000)),
            (centered_fraction_sum, _centered_terms, (1, 2, 10, 500)),
        )
        for arg in args
    ],
)
def test_prime_sums_are_correctly_rounded(fn, terms, arg):
    # each sum is the exact sum of its once-rounded terms, rounded once
    assert fn(arg) == float(sum(map(Fraction, terms(arg)), Fraction(0)))


def test_lcm_correction_ignores_the_order_of_its_partials():
    n = 1_100_000  # 2n spans two sieve blocks
    ev = orders.log_lcm_exact(n)
    partials = orders._correction_partials(n, 1)
    assert len(partials) == 2
    assert math.fsum([ev.two_term, *reversed(partials)]) == ev.correction
    assert ev.correction == float(sum(map(Fraction, [ev.two_term, *partials])))
