"""Prime harmonic sums, the constant B, and residuals against the main term."""

import functools
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
    MAX_P_MAX,
    character_log_sum,
    compute_B,
    eq6_main,
    mertens_log_sum,
    prime_log_power_sum,
    residual_scan,
)
from quadlcm.errors import DivergentSeriesError, InvalidRangeError
from quadlcm.orders import log_lcm_bruteforce
from quadlcm.primes import PSI_MAX_N

GAMMA = 0.5772156649015329

# B = gamma - 1 - (log 2)/2 - S and S to 29 digits, from mpmath_b() below
B_REF = Fraction("-0.066275634213060706422591211655")
S_REF = Fraction("-0.70308229116537908767951275899")

# mpmath's Dirichlet series for each character, as its values mod q
_MP_CHARS = {CHAR_PRINCIPAL: [0, 1], CHAR_QUADRATIC: [0, 1, 0, -1]}


@functools.lru_cache(maxsize=None)
def mpmath_b():
    """(S, B) at 50 digits by an algorithm independent of the package's:
    Moebius inversion P_chi(k) = sum_m mu(m) G_{chi^m}(mk) of the
    logarithmic derivatives G = -L'/L that mpmath evaluates, with chi^m
    the principal character for even m.  Arguments mk > 100 are dropped
    (each |G| there is below 3^-100) and so is the S tail k >= 70 (below
    3^-69, about 7e-34 in fact); both sit under the 1e-32 the tests
    resolve."""
    with mpmath.workdps(50):
        s = mpmath.fsum(_mp_power_sum(CHAR_QUADRATIC, k) for k in range(1, 70))
        b = mpmath.euler - 1 - mpmath.log(2) / 2 - s
        return Fraction(mpmath.nstr(s, 45)), Fraction(mpmath.nstr(b, 45))


@functools.lru_cache(maxsize=None)
def _mp_neg_log_deriv(char, t):
    chi = _MP_CHARS[char]
    return -mpmath.dirichlet(t, chi, derivative=1) / mpmath.dirichlet(t, chi)


def _mp_power_sum(char, k):
    """P_char(k) from the -L'/L at arguments mk <= 100, in the caller's
    mpmath precision."""
    return mpmath.fsum(
        mu * _mp_neg_log_deriv(char if m % 2 else CHAR_PRINCIPAL, m * k)
        for m in range(1, 100 // k + 1)
        if (mu := sympy.mobius(m))
    )


def mpmath_power_sum(char, k):
    """P_char(k) at 50 digits for the principal or quadratic character."""
    with mpmath.workdps(50):
        return Fraction(mpmath.nstr(_mp_power_sum(char, k), 45))


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
    assert abs(got - B_REF) <= Fraction(ev.tail_bound) + Fraction(1, 10**29)
    assert abs(Fraction(ev.s_value) - S_REF) < Fraction(1, 10**15)
    assert -0.0662756392 <= ev.value <= -0.0662756292
    assert ev.mode == "accelerated"
    assert ev.p_max is None


def test_reference_constants_match_the_mpmath_oracle():
    s, b = mpmath_b()
    assert abs(s - S_REF) < Fraction(1, 10**29)
    assert abs(b - B_REF) < Fraction(1, 10**29)


def test_character_power_sums_are_within_their_tail_bound_of_the_mpmath_oracle():
    # the oracle resolves about 1e-48 absolute, so 1e-40 covers it
    for char, low in ((CHAR_PRINCIPAL, 2), (CHAR_QUADRATIC, 1)):
        for s in range(low, 65):
            ps = prime_log_power_sum(s, char)
            want = mpmath_power_sum(char, s)
            err = abs(Fraction(ps.hi) + Fraction(ps.lo) - want)
            assert err <= Fraction(ps.tail_bound) + Fraction(1, 10**40), (char, s)


@pytest.mark.parametrize("depth", [16, 64])
def test_compute_b_is_within_its_tail_bound_of_the_mpmath_oracle(depth):
    ev = asymptotics._accelerated_b(depth)
    got = Fraction(ev.value_hi) + Fraction(ev.value_lo)
    assert abs(got - mpmath_b()[1]) <= Fraction(ev.tail_bound)


def test_compute_b_is_within_1e_32_of_the_mpmath_oracle():
    # S summed over the arguments the recursion keeps counts each prime
    # power once; depth 48 was 6.9e-24 off, depths past 64 about 1e-31
    ev = compute_B()
    err = abs(Fraction(ev.value_hi) + Fraction(ev.value_lo) - mpmath_b()[1])
    assert err <= Fraction(1, 10**32)
    assert err <= Fraction(ev.tail_bound)


def test_compute_b_recombination_is_reconstructible():
    ev = compute_B("accelerated")
    assert ev.value == ev.gamma_used - 1.0 - HALF_LOG2 - ev.s_value
    assert ev.gamma_used == GAMMA


def test_compute_b_depth_nesting():
    lo = asymptotics._accelerated_b(16)
    hi = compute_B()
    gap = abs(
        (Fraction(lo.value_hi) + Fraction(lo.value_lo))
        - (Fraction(hi.value_hi) + Fraction(hi.value_lo))
    )
    assert float(gap) <= lo.tail_bound + hi.tail_bound
    assert hi.tail_bound < lo.tail_bound


# every accelerated field pinned with ==, at the recursion's cutoff (what
# compute_B returns) and at depth 16 (what verify nests inside it)
COMPUTE_B_PINS = {
    64: (
        -0.0662756342130606,
        -0.06627563421306071,
        1.4773648027890228e-18,
        -0.7030822911653791,
        1.7572031761606825e-30,
    ),
    16: (
        -0.06627564697113009,
        -0.06627564697113013,
        6.879200798184172e-18,
        -0.7030822784073096,
        1.5289443797512242e-08,
    ),
}


# (hi, lo, tail_bound) of prime_log_power_sum(s, CHAR_TRIVIAL), pinned with ==
TRIVIAL_POWER_SUM_PINS = {
    2: (0.49309110936876444, 2.6868787825368647e-17, 4.0887940668275244e-20),
    3: (0.15075755554395043, -5.6183086274896144e-18, 3.233653802577971e-20),
    4: (0.06060763335077007, -3.4100361536934775e-18, 3.53658612502134e-21),
    5: (0.02683860127679836, -1.2231746619809147e-18, 2.060879911448693e-20),
    6: (0.01245908072279999, 6.884529712714767e-19, 1.0570535672339682e-20),
    7: (0.005940689039148196, 3.0674095502807222e-19, 1.7662293264972264e-21),
    8: (0.0028795247087292472, 1.6742484638486146e-19, 2.9528163304755602e-22),
    9: (0.0014104919214245313, -4.654034756699668e-20, 5.876935380104929e-22),
    10: (0.0006956784473446205, 1.1325859403529551e-20, 5.894130523493729e-22),
    11: (0.0003446864256305149, -1.6962023434347522e-20, 2.818628378736658e-20),
    12: (0.00017129935244621756, 8.780317055107392e-21, 4.403747442917777e-22),
    13: (8.530310916711058e-05, 6.065119293521038e-21, 1.8794672550503593e-20),
    14: (4.253630557412291e-05, -5.620179045704883e-23, 5.8722600602689175e-22),
    15: (2.1229790562749345e-05, 1.5118501413685831e-21, 1.834913287755092e-23),
    16: (1.060211861676128e-05, -5.898162269679552e-22, 5.733841557806815e-25),
    17: (5.296802557643848e-06, 6.932066429623385e-24, 4.6969659116986194e-21),
    18: (2.6469827878029976e-06, -2.059107469349995e-22, 2.9355980954169247e-22),
    19: (1.3230186485122927e-06, 4.5345578914064845e-23, 1.8347470598555514e-23),
    20: (6.6135175941726e-07, -6.77273863876568e-24, 1.1467163656082513e-24),
    21: (3.306233614825209e-07, -2.345404501812006e-23, 7.166975576304436e-26),
    22: (1.6529417534260667e-07, -5.284089827958306e-24, 9.393900467087602e-21),
    23: (8.264125267365856e-08, -1.7539786918112907e-24, 1.1742372784227073e-21),
    24: (4.1318681364650836e-08, -1.3139128307101324e-24, 1.4677964230522095e-22),
    25: (2.065869236367124e-08, 1.0644118881649972e-24, 1.8347454194554668e-23),
    26: (1.0329130076698341e-08, -7.935996550935462e-25, 2.2934317059695775e-24),
    27: (5.164493003519525e-09, 2.354151093689976e-25, 2.866789589743417e-25),
    28: (2.5822224901930982e-09, 1.9928929190022556e-25, 3.5834869604801907e-26),
    29: (1.291103241249637e-09, 4.001244094904489e-26, 4.479358683913318e-27),
    30: (6.455489526775763e-10, -5.131203623694188e-26, 5.599198344462325e-28),
    31: (3.2277358702338636e-10, -7.439936512934019e-27, 6.99899792405958e-29),
    32: (1.6138649707329504e-10, 1.1820925859274176e-26, 8.748747401000522e-30),
    33: (8.069314973325587e-11, 5.295876452978746e-27, 9.393895988821993e-21),
    34: (4.034654192668704e-11, 1.1482270994248853e-27, 2.3484739970636253e-21),
    35: (2.0173259983559483e-11, 9.626361082654393e-28, 5.871184992482447e-22),
    36: (1.0086626331900766e-11, -1.6165861962149511e-28, 1.4677962480986155e-22),
    37: (5.043311946002979e-12, -2.293387087188352e-28, 3.669490620219133e-23),
    38: (2.5216555663554168e-12, -1.7669528240395182e-28, 9.173726550513674e-24),
    39: (1.2608276476297829e-12, -6.409395940085501e-29, 2.2934316376241598e-24),
    40: (6.304137786324409e-13, -6.48373260783293e-30, 5.733579094055088e-25),
    41: (3.152068742554514e-13, -7.613716621575866e-30, 1.4333947735131093e-25),
    42: (1.5760343210748132e-13, -1.0256986254474415e-29, 3.5834869337819474e-26),
    43: (7.880171438032885e-14, -2.569781032094564e-30, 8.958717334453835e-27),
    44: (3.940085663236123e-14, 1.7262325948826828e-30, 2.23967933361333e-27),
    45: (1.9700428130246406e-14, 2.885928791650689e-31, 5.599198334033164e-28),
    46: (9.85021400314518e-15, -1.8164687153870876e-31, 1.3997995835082712e-28),
    47: (4.925106980913261e-15, -3.651231714899331e-31, 3.499498958770652e-29),
    48: (2.46255348357019e-15, 1.4464778479962651e-31, 8.7487473969266e-30),
    49: (1.2312767394896156e-15, 5.594725499417869e-32, 2.187186849231646e-30),
    50: (6.156383689796482e-16, 7.583213489494239e-33, 5.467967123079111e-31),
    51: (3.07819184234771e-16, -2.3173589868036126e-32, 1.366991780769777e-31),
    52: (1.5390959203236779e-16, -9.182870805392428e-33, 3.4174794519244415e-32),
    53: (7.695479598784466e-17, -9.420828512604602e-34, 8.543698629811104e-33),
    54: (3.8477397984475916e-17, 1.4574133037233799e-33, 2.1359246574527756e-33),
    55: (1.9238698989089155e-17, 5.223617780388329e-34, 5.339811643631939e-34),
    56: (9.619349493494977e-18, 2.3689885449766484e-34, 1.3349529109079848e-34),
    57: (4.8096747463976215e-18, -1.3531040397469784e-34, 3.337382277269962e-35),
    58: (2.4048373730821884e-18, -2.1065284482761546e-35, 8.343455693174905e-36),
    59: (1.20241868650222e-18, 5.6926275123575826e-36, 2.0858639232937262e-36),
    60: (6.01209343238152e-19, 8.428560856588313e-36, 5.2146598082343154e-37),
    61: (3.0060467161475666e-19, -9.930930871949898e-36, 1.3036649520585789e-37),
    62: (1.5030233580593856e-19, -9.669671920566922e-36, 3.259162380146447e-38),
    63: (7.515116790248935e-20, -2.3878347541794775e-36, 8.147905950366118e-39),
    64: (3.7575583951084695e-20, 1.6286057121463793e-36, 2.0369764875915295e-39),
}


def test_trivial_power_sums_are_pinned():
    got = {}
    for s in TRIVIAL_POWER_SUM_PINS:
        ps = prime_log_power_sum(s, CHAR_TRIVIAL)
        got[s] = (ps.hi, ps.lo, ps.tail_bound)
    assert got == TRIVIAL_POWER_SUM_PINS


@pytest.mark.parametrize("depth", sorted(COMPUTE_B_PINS))
def test_compute_b_accelerated_is_pinned(depth):
    ev = asymptotics._accelerated_b(depth)
    got = (ev.value, ev.value_hi, ev.value_lo, ev.s_value, ev.tail_bound)
    assert got == COMPUTE_B_PINS[depth]
    assert (ev.mode, ev.gamma_used, ev.p_max) == ("accelerated", GAMMA, None)
    assert compute_B() == asymptotics._accelerated_b(asymptotics._ARGUMENT_CUTOFF)


def test_compute_b_naive_mode():
    ev = compute_B("naive", p_max=10**5)
    assert ev.mode == "naive"
    assert ev.p_max == 10**5
    # the naive partial sum carries a tail of about p_max^(-1/2), biased in sign
    assert abs(ev.value - float(B_REF)) < 0.01
    assert ev.value == ev.gamma_used - 1.0 - HALF_LOG2 - ev.s_value
    assert ev.s_value == character_log_sum(10**5)


def test_compute_b_validation():
    with pytest.raises(InvalidRangeError):
        compute_B("naive", p_max=100)
    with pytest.raises(InvalidRangeError):
        compute_B("naive", p_max=MAX_P_MAX + 1)
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
    for n in [1, 10, 100, 10**4]:
        got = eq6_main(n)
        with mpmath.workdps(40):
            s = mpmath.fsum(
                mpmath.log(int(p)) / (int(p) - 1)
                for p in sympy.primerange(2, 2 * n + 1)
                if int(p) % 4 == 1
            )
            a = 2 * n * mpmath.log(n)
            d = n * (1 + mpmath.log(2) / 2 + 2 * s)
            gap = abs(mpmath.mpf(got) - (a - d)) / math.ulp(got)
            k = (a + d) / abs(a - d)
        assert gap <= 6 * k + 2, (n, gap, k)
    with pytest.raises(InvalidRangeError):
        eq6_main(0)


def test_residual_scan_makes_no_eq6_pass(monkeypatch):
    # r(n) needs log L_n and B only: neither the Eq. (6) sum nor the
    # 1 mod 4 sieve pass behind it may run inside the scan
    def refuse(*args):
        raise AssertionError("residual_scan made an Eq. (6) pass")

    monkeypatch.setattr(asymptotics, "eq6_main", refuse, raising=False)
    monkeypatch.setattr(asymptotics, "iter_primes_one_mod_four", refuse)
    lo, hi = residual_scan([1000, 10000])
    # the report holds what the residuals CSV prints, and nothing else
    assert tuple(vars(lo)) == ("n", "log_L", "main", "r", "normalized")
    assert tuple(vars(lo).values()) == RESIDUAL_PINS[1000]
    assert hi.n == 10000


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


def test_prime_log_sums_refuse_x_past_the_psi_ceiling_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started past the ceiling")

    monkeypatch.setattr(asymptotics, "iter_primes", refuse)
    message = f"at most the work ceiling {PSI_MAX_N}, got x = {PSI_MAX_N + 1}"
    for fn in (mertens_log_sum, character_log_sum):
        with pytest.raises(InvalidRangeError, match=message):
            fn(PSI_MAX_N + 1)


def test_residual_scan_refuses_a_grid_past_the_ceiling_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started past the ceiling")

    monkeypatch.setattr(asymptotics, "compute_B", refuse)
    monkeypatch.setattr(asymptotics, "log_lcm_exact", refuse)
    with pytest.raises(InvalidRangeError, match=f"got n = {orders.MAX_N + 1}"):
        residual_scan([10, orders.MAX_N + 1])


def test_residual_scan_worker_determinism():
    # 1_100_000 spans two blocks of the correction pass, so workers=2
    # opens a pool there
    grid = [100, 1000, 1_100_000]
    assert residual_scan(grid, workers=1) == residual_scan(grid, workers=2)


# perfbench/probe.py times its runs by wrapping or swapping these module
# globals, so each must stay bound even where the package no longer calls
# it through that name (tests/test_package.py lets them be unused imports)
PROBE_GLOBALS = (
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
)


def test_probe_layer_names_stay_bound():
    for module, names in PROBE_GLOBALS:
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
