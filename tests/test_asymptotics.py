"""Prime harmonic sums, the constant B, and residuals against the main term."""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy

from quadlcm import asymptotics, discrepancy, orders
from quadlcm.asymptotics import (
    CHAR_PRINCIPAL,
    CHAR_QUADRATIC,
    CHAR_TRIVIAL,
    HALF_LOG2,
    character_log_sum,
    compute_B,
    mertens_log_sum,
    prime_log_power_sum,
    residual_scan,
)
from quadlcm.errors import DivergentSeriesError, InvalidRangeError
from quadlcm.orders import log_lcm_bruteforce

GAMMA = 0.5772156649015329

# Frozen from the high-precision oracle run recorded alongside these tests:
# B = gamma - 1 - (log 2)/2 - S with S evaluated through the accelerated
# booster at depth 48 and cross-checked against a depth-64 evaluation.
B_REF = Fraction("-0.06627563421306070640742")
S_REF = Fraction("-0.7030822911653790876947")


def test_mertens_hand_values():
    assert mertens_log_sum(4) == math.log(3) / 2
    # direct sympy recomputation at x = 10: p in {3, 5, 7}
    want = math.fsum(math.log(p) / (p - 1) for p in (3, 5, 7))
    assert mertens_log_sum(10) == pytest.approx(want, rel=1e-15)
    with pytest.raises(InvalidRangeError):
        mertens_log_sum(2)


def test_character_hand_values():
    assert character_log_sum(4) == -math.log(3) / 2
    want = math.fsum(
        (1 if p % 4 == 1 else -1) * math.log(p) / (p - 1)
        for p in sympy.primerange(3, 101)
    )
    assert character_log_sum(100) == pytest.approx(want, rel=1e-13)


def test_mertens_against_sympy_at_scale():
    x = 10**4
    want = math.fsum(math.log(int(p)) / (int(p) - 1) for p in sympy.primerange(3, x + 1))
    assert mertens_log_sum(x) == pytest.approx(want, rel=1e-12)


def test_trivial_power_sum_matches_direct_prime_sum():
    # P(2) = sum log p / p^2; tail beyond 10^6 is below (log x + 1)/x
    direct = math.fsum(
        math.log(int(p)) / int(p) ** 2 for p in sympy.primerange(2, 10**6)
    )
    got = prime_log_power_sum(2, CHAR_TRIVIAL)
    assert abs(got.value - direct) <= (math.log(10**6) + 1) / 10**6
    assert got.tail_bound < 1e-18


def test_quadratic_power_sum_matches_direct_prime_sum():
    direct = math.fsum(
        (1 if int(p) % 4 == 1 else -1) * math.log(int(p)) / int(p) ** 2
        for p in sympy.primerange(3, 10**6)
    )
    got = prime_log_power_sum(2, CHAR_QUADRATIC)
    assert abs(got.value - direct) <= (math.log(10**6) + 1) / 10**6


def test_power_sum_domain_errors():
    with pytest.raises(DivergentSeriesError):
        prime_log_power_sum(1, CHAR_TRIVIAL)
    with pytest.raises(DivergentSeriesError):
        prime_log_power_sum(1, CHAR_PRINCIPAL)
    with pytest.raises(InvalidRangeError):
        prime_log_power_sum(0, CHAR_QUADRATIC)
    with pytest.raises(InvalidRangeError):
        prime_log_power_sum(2, "cubic")


def test_compute_b_accelerated_against_frozen_oracle():
    ev = compute_B("accelerated")
    got = Fraction(ev.value_hi) + Fraction(ev.value_lo)
    assert abs(got - B_REF) <= Fraction(ev.tail_bound) + Fraction(1, 10**21)
    assert abs(Fraction(ev.s_value) - S_REF) < Fraction(1, 10**15)
    assert -0.0662756392 <= ev.value <= -0.0662756292
    assert ev.mode == "accelerated"
    assert ev.depth == 48 and ev.p_max is None


def test_compute_b_recombination_is_reconstructible():
    ev = compute_B("accelerated")
    assert ev.value == ev.gamma_used - 1.0 - HALF_LOG2 - ev.s_value
    assert ev.gamma_used == GAMMA


def test_compute_b_depth_nesting():
    lo = compute_B("accelerated", depth=16)
    hi = compute_B("accelerated", depth=48)
    gap = abs(
        (Fraction(lo.value_hi) + Fraction(lo.value_lo))
        - (Fraction(hi.value_hi) + Fraction(hi.value_lo))
    )
    assert float(gap) <= lo.tail_bound + hi.tail_bound
    assert hi.tail_bound < lo.tail_bound


# every accelerated field pinned with ==, at the default depth and the least
COMPUTE_B_PINS = {
    48: (
        -0.0662756342130606,
        -0.06627563421306071,
        1.4925360785445992e-18,
        -0.7030822911653791,
        1.27445393952673e-19,
    ),
    16: (
        -0.06627564697113009,
        -0.06627564697113013,
        6.891873921440875e-18,
        -0.7030822784073096,
        1.5289443797637176e-08,
    ),
}


@pytest.mark.parametrize("depth", sorted(COMPUTE_B_PINS))
def test_compute_b_accelerated_is_pinned(depth):
    ev = compute_B("accelerated", depth=depth)
    got = (ev.value, ev.value_hi, ev.value_lo, ev.s_value, ev.tail_bound)
    assert got == COMPUTE_B_PINS[depth]
    assert (ev.mode, ev.gamma_used, ev.p_max, ev.depth) == (
        "accelerated",
        GAMMA,
        None,
        depth,
    )


def test_compute_b_naive_mode():
    ev = compute_B("naive", p_max=10**5)
    assert ev.mode == "naive"
    assert ev.p_max == 10**5 and ev.depth is None
    # the naive partial sum carries a tail of about p_max^(-1/2), biased in sign
    assert abs(ev.value - float(B_REF)) < 0.01
    assert ev.value == ev.gamma_used - 1.0 - HALF_LOG2 - ev.s_value
    assert ev.s_value == character_log_sum(10**5)


def test_compute_b_validation():
    with pytest.raises(InvalidRangeError):
        compute_B("accelerated", depth=8)
    with pytest.raises(InvalidRangeError):
        compute_B("naive", p_max=100)
    with pytest.raises(InvalidRangeError):
        compute_B("fast")


def test_residual_hand_values():
    b = float(B_REF)
    reps = residual_scan([1, 10])
    want_r10 = log_lcm_bruteforce(10) - (10 * math.log(10) + b * 10)
    assert reps[1].r == pytest.approx(want_r10, abs=1e-9)
    want_r1 = math.log(2) - b  # log L_1 = log 2, main term is B·1
    assert reps[0].r == pytest.approx(want_r1, abs=1e-12)
    assert reps[0].normalized == 0.0  # log 1 = 0 leaves no scale at n = 1
    assert reps[1].main == pytest.approx(10 * math.log(10) + b * 10, abs=1e-12)


def test_residual_eq6_intermediate_matches_direct_assembly():
    # Oracle: A − D with A = 2n log n and D = n(1 + (log 2)/2 + 2S),
    # S = Σ_{p≡1 (4), p≤2n} log p/(p−1), at 40 digits.  Bound, with
    # u = 2^-53 and math.log within one ulp (relative 2u): fl(2n·fl(log n))
    # errs by ≤ 3u·A; each term fl(fl(log p)/(p−1)) by ≤ 3u of itself, so
    # the positive sum's one correctly rounded fsum by ≤ 4u·S (doubling is
    # exact); fl(1 + fl(log 2)/2) by ≤ 3u of itself; their sum C by ≤ 5u·C;
    # fl(n·C) by ≤ 6u·D.  The final subtraction adds u·|eq6_main|, and
    # u·|x| < ulp(x), so the gap is below (3A + 6D)/|eq6_main| + 1 ulps.
    # With K = (A + D)/|eq6_main| the cancellation ratio, 6K + 2 covers
    # that and the second-order terms.  At n = 1 the sum is empty (2n = 2).
    grid = [1, 10, 100, 10**4]
    for n, rep in zip(grid, residual_scan(grid)):
        with mpmath.workdps(40):
            s = mpmath.fsum(
                mpmath.log(int(p)) / (int(p) - 1)
                for p in sympy.primerange(2, 2 * n + 1)
                if int(p) % 4 == 1
            )
            a = 2 * n * mpmath.log(n)
            d = n * (1 + mpmath.log(2) / 2 + 2 * s)
            gap = abs(mpmath.mpf(rep.eq6_main) - (a - d)) / math.ulp(rep.eq6_main)
            k = (a + d) / abs(a - d)
        assert gap <= 6 * k + 2, (n, gap, k)
        assert rep.eq6_vs_exact == rep.eq6_main - rep.log_L
        assert rep.eq6_vs_closed == rep.eq6_main - rep.main


# (n, log_L, main, r, normalized) of residual_scan pinned with ==; at
# 1_100_000 (two blocks of the correction pass) log_L alone
RESIDUAL_PINS = {
    1: (1, 0.6931471805599453, -0.0662756342130606, 0.7594228147730059, 0.0),
    2: (
        2,
        2.302585092994046,
        1.2537430926937694,
        1.0488420003002765,
        0.4463168438804406,
    ),
    10: (
        10,
        21.249796203135688,
        22.363094587809854,
        -1.1132983846741666,
        -0.16068912354451073,
    ),
    1000: (
        1000,
        6847.470308163295,
        6841.479644769076,
        5.990663394219155,
        0.014021135071478454,
    ),
    10**5: (
        100000,
        1144699.2121582786,
        1144664.983075717,
        34.2290825615637,
        0.001003037023841109,
    ),
}


def test_residual_scan_is_pinned():
    *reps, top = residual_scan(sorted(RESIDUAL_PINS) + [1_100_000])
    got = {r.n: (r.n, r.log_L, r.main, r.r, r.normalized) for r in reps}
    assert got == RESIDUAL_PINS
    assert (top.n, top.log_L) == (1_100_000, 15227817.05893008)


def test_residual_scan_validation():
    with pytest.raises(InvalidRangeError):
        residual_scan([])
    with pytest.raises(InvalidRangeError):
        residual_scan([10, 10])
    with pytest.raises(InvalidRangeError):
        residual_scan([0, 10])
    with pytest.raises(InvalidRangeError):
        residual_scan([10, 100], theta=0.5)
    with pytest.raises(InvalidRangeError):
        residual_scan([10, 100], theta=0.0)


def test_residual_scan_worker_determinism():
    # 1_100_000 spans two blocks of the correction pass, so workers=2
    # opens a pool there
    grid = [100, 1000, 1_100_000]
    assert residual_scan(grid, workers=1) == residual_scan(grid, workers=2)


def test_probe_layer_names_stay_bound():
    # perfbench/probe.py times its runs by wrapping or swapping these
    # module globals, so each must stay bound even where the package no
    # longer calls it through that name
    for module, names in (
        (
            asymptotics,
            (
                "_prime_harmonic_sums",
                "log_lcm_exact",
                "compute_B",
                "neg_log_deriv_zeta",
                "neg_log_deriv_l4",
            ),
        ),
        (orders, ("log_P", "_correction_partials", "iter_primes", "_lifted_root")),
        (discrepancy, ("collect_fractions", "discrepancy_of_sample")),
    ):
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_theta_only_scales_normalization():
    lo = residual_scan([1000], theta=0.1)[0]
    hi = residual_scan([1000], theta=0.4)[0]
    assert lo.r == hi.r
    ratio = math.log(1000) ** 0.3
    assert hi.normalized == pytest.approx(lo.normalized * ratio, rel=1e-12)


def test_b_reference_cross_checked_with_mpmath_euler():
    # the recombination constant gamma - 1 - log(2)/2 at 40 digits
    with mpmath.workdps(50):
        const = Fraction(mpmath.nstr(mpmath.euler - 1 - mpmath.log(2) / 2, 40))
    assert abs((const - S_REF) - B_REF) < Fraction(1, 10**20)
