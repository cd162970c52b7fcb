"""Euler-Maclaurin zeta and L(s, chi_4) values against mpmath at 50 digits."""

from fractions import Fraction

import mpmath
import pytest

from quadlcm.dirichlet import (
    _em_coeff_logsum,
    l4_em,
    neg_log_deriv_l4,
    neg_log_deriv_zeta,
    zeta_em,
)
from quadlcm.errors import DivergentSeriesError, InvalidRangeError


def mp_fraction(x):
    return Fraction(mpmath.nstr(x, 40))


def mp_beta(s):
    """Dirichlet beta via accelerated alternating summation."""
    return mpmath.nsum(lambda k: (-1) ** k / (2 * k + 1) ** s, [0, mpmath.inf])


def mp_beta_prime(s):
    return mpmath.diff(mp_beta, s)


SLACK = Fraction(1, 10**37)


@pytest.mark.parametrize("s", [2, 3, 4, 7, 16, 64])
def test_zeta_em_value_and_derivative(s):
    with mpmath.workdps(50):
        want = mp_fraction(mpmath.zeta(s))
        want_d = mp_fraction(mpmath.zeta(s, derivative=1))
    got = zeta_em(s)
    assert abs(Fraction(got.value) - want) <= SLACK + Fraction(
        int(got.tail_bound * 1e40) + 1, 10**40
    )
    assert abs(Fraction(got.derivative) - want_d) <= SLACK


def test_zeta_em_rejects_near_pole():
    with pytest.raises(DivergentSeriesError):
        zeta_em(1)
    with pytest.raises(DivergentSeriesError):
        zeta_em(0)


@pytest.mark.parametrize("s", [1, 2, 3, 5, 11, 33])
def test_l4_em_value_and_derivative(s):
    with mpmath.workdps(50):
        want = mp_fraction(mp_beta(s))
        want_d = mp_fraction(mp_beta_prime(s))
    got = l4_em(s)
    assert abs(Fraction(got.value) - want) <= SLACK
    assert abs(Fraction(got.derivative) - want_d) <= SLACK


def test_l4_special_values_closed_forms():
    with mpmath.workdps(50):
        quarter_pi = mp_fraction(mpmath.pi / 4)
        catalan = mp_fraction(mpmath.catalan + 0)
        pi_cubed_32 = mp_fraction(mpmath.pi**3 / 32)
    assert abs(Fraction(l4_em(1).value) - quarter_pi) <= SLACK
    assert abs(Fraction(l4_em(2).value) - catalan) <= SLACK
    assert abs(Fraction(l4_em(3).value) - pi_cubed_32) <= SLACK


def test_l4_em_rejects_below_one():
    with pytest.raises(InvalidRangeError):
        l4_em(0)


def test_tail_bounds_are_honest():
    for s in (2, 3, 7):
        got = zeta_em(s)
        with mpmath.workdps(60):
            want = mp_fraction(mpmath.zeta(s))
        err = abs(Fraction(got.value) - want)
        assert err <= Fraction(got.tail_bound) + SLACK
        assert got.tail_bound < 1e-40


def test_neg_log_derivatives():
    with mpmath.workdps(50):
        want_z = mp_fraction(-mpmath.zeta(2, derivative=1) / mpmath.zeta(2))
        want_l = mp_fraction(-mp_beta_prime(2) / mp_beta(2))
    got_z, bound_z = neg_log_deriv_zeta(2)
    got_l, bound_l = neg_log_deriv_l4(2)
    assert abs(Fraction(got_z) - want_z) <= SLACK
    assert abs(Fraction(got_l) - want_l) <= SLACK
    assert 0 <= bound_z < 1e-30 and 0 <= bound_l < 1e-30


def test_em_coeff_logsum_equals_direct_sum():
    # h_j(s) = sum of 1/(s+i) for i < 2j-1, at every (s, j) the series use
    for s in range(1, 65):
        for j in range(1, 22):
            want = sum((Fraction(1, s + i) for i in range(2 * j - 1)), Fraction(0))
            assert _em_coeff_logsum(s, j) == want
