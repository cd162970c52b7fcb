"""The decimal context of the closed forms, and the one summation rule."""

import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlcm
from quadlcm import orders
from quadlcm.asymptotics import character_log_sum, mertens_log_sum
from quadlcm.discrepancy import centered_fraction_sum
from quadlcm.orders import _atan_inverse
from quadlcm.primes import chebyshev_psi
from quadlcm.summation import (
    GAMMA,
    HALF_LOG_2PI,
    LN2,
    LOG_PI_OVER_SINH_PI,
    log_of_bigint,
)

# 45-digit rational references straight from the oracle
with mpmath.workdps(60):
    LN2_REF = Fraction(mpmath.nstr(mpmath.log(2), 45))
    GAMMA_REF = Fraction(mpmath.nstr(mpmath.euler + 0, 45))
    HALF_LOG_2PI_REF = Fraction(mpmath.nstr(mpmath.log(2 * mpmath.pi) / 2, 45))
    LOG_PI_OVER_SINH_PI_REF = Fraction(
        mpmath.nstr(mpmath.log(mpmath.pi / mpmath.sinh(mpmath.pi)), 45)
    )


def test_dd_constants_against_references():
    for got, ref in (
        (LN2, LN2_REF),
        (GAMMA, GAMMA_REF),
        (HALF_LOG_2PI, HALF_LOG_2PI_REF),
        (LOG_PI_OVER_SINH_PI, LOG_PI_OVER_SINH_PI_REF),
    ):
        assert abs(Fraction(got) - ref) < Fraction(1, 10**39)


@pytest.mark.parametrize("den", [3, 24, 1000, 10**7, 2**100])
def test_dd_atan_small_high_precision(den):
    with mpmath.workdps(60):
        ref = Fraction(mpmath.nstr(mpmath.atan(mpmath.mpf(1) / den), 45))
    got = Fraction(_atan_inverse(den))
    assert abs(got - ref) < ref * Fraction(1, 10**39)


@functools.lru_cache(maxsize=None)
def _closed_forms(setup):
    """The printed reprs of the closed forms, computed in a fresh
    interpreter (the lru_caches would otherwise return earlier values)
    after running setup, and whether the caller's decimal context kept
    every setting and flag.  The lines after the first seven are the
    (hi, lo) of every prime power sum at s <= 64."""
    script = (
        "import dataclasses\n"
        "from decimal import ROUND_FLOOR, getcontext\n"
        "from quadlcm import asymptotics, dirichlet, orders, summation\n"
        f"{setup}\n"
        "before = repr(getcontext())\n"
        "B = asymptotics.compute_B\n"
        "for ev in (asymptotics._accelerated_b(16), B(), B('naive', p_max=10**5)):\n"
        "    print(dataclasses.astuple(ev))\n"
        "print([orders.log_P(n) for n in (1, 23, 3000, 10**7, 2**100)])\n"
        "print(asymptotics.prime_log_power_sum(3, asymptotics.CHAR_QUADRATIC))\n"
        "print(dirichlet.zeta_em(2))\n"
        "print(dirichlet.l4_em(1))\n"
        "for char, low in ((asymptotics.CHAR_TRIVIAL, 2),\n"
        "                  (asymptotics.CHAR_PRINCIPAL, 2),\n"
        "                  (asymptotics.CHAR_QUADRATIC, 1)):\n"
        "    for s in range(low, 65):\n"
        "        ps = asymptotics.prime_log_power_sum(s, char)\n"
        "        print(char, s, ps.hi, ps.lo)\n"
        "print(repr(getcontext()) == before)\n"
    )
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    *lines, kept = proc.stdout.splitlines()
    return tuple(lines), kept == "True"


def test_caller_decimal_context_changes_no_bit():
    default, _ = _closed_forms("")
    caller, kept = _closed_forms(
        "getcontext().prec = 5\ngetcontext().rounding = ROUND_FLOOR"
    )
    assert caller == default
    assert kept


def test_b_is_converged_at_the_working_precision():
    # every ConstantEvaluation field at 60 digits equals the 40-digit run
    default, _ = _closed_forms("")
    wide, _ = _closed_forms("summation.CONTEXT.prec = 60")
    assert wide[:3] == default[:3]


def test_power_sums_are_converged_at_the_working_precision():
    # every prime power sum of the three characters at s <= 64: (hi, lo)
    # at 60 digits equals the 40-digit run
    default, _ = _closed_forms("")
    wide, _ = _closed_forms("summation.CONTEXT.prec = 60")
    assert len(default) == 7 + 63 + 63 + 64
    assert [w for w, d in zip(wide[7:], default[7:]) if w != d] == []


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
    with mpmath.workdps(40):
        ref = Fraction(mpmath.nstr(mpmath.log(v), 30))
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
