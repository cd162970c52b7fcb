"""Exact interval discrepancy, test functions, and equidistribution sums."""

import hashlib
import math
from fractions import Fraction

import pytest

from quadlcm import discrepancy as discrepancy_module
from quadlcm.discrepancy import (
    BVFunction,
    MonomialMap,
    Witness,
    centered_fraction_sum,
    collect_fractions,
    constant_one,
    decay_scan,
    discrepancy,
    discrepancy_of_sample,
    equidistribution_sum,
    identity_map,
    square_map,
    tent_map,
)
from quadlcm.errors import EmptySampleError, InvalidRangeError
from quadlcm.primes import pi1_range
from quadlcm.roots import MAX_N


def test_collect_fractions_small():
    s = collect_fractions(5)
    assert s.items == (Fraction(2, 5), Fraction(1, 2), Fraction(3, 5))
    assert s.pi_n == 3
    s = collect_fractions(4)
    assert s.items == (Fraction(1, 2),)
    assert s.pi_n == 2
    s = collect_fractions(13)
    assert s.items == (
        Fraction(5, 13),
        Fraction(2, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(8, 13),
    )
    assert s.pi_n == 6


def test_collect_fractions_needs_two():
    with pytest.raises(EmptySampleError):
        collect_fractions(1)


def test_hand_discrepancies_exact():
    assert discrepancy(2).D_exact == Fraction(1)
    assert discrepancy(5).D_exact == Fraction(4, 5)
    assert discrepancy(13).D_exact == Fraction(47, 78)


def brute_discrepancy(sample):
    """Independent oracle: try every interval shape the sup can use.

    The supremum over half-open, closed, and open intervals with endpoints
    ranging over the sample points (u approached from the left or hit
    exactly, likewise v) is attained on the candidate set below.
    """
    pts = list(sample.items)
    P = sample.pi_n
    candidates = sorted({Fraction(0), Fraction(1), *pts})
    best = Fraction(0)
    for u in candidates:
        for v in candidates:
            # v == u stays in: the degenerate interval {u} has measure zero
            # but positive count, and the sup does use it at tiny n
            if v < u:
                continue
            for u_left in (False, True):
                for v_left in (False, True):
                    w = Witness(u=u, v=v, u_from_left=u_left, v_from_left=v_left)
                    best = max(best, w.deviation(sample))
    return best


# every n up to 60: at tiny n ties and degenerate intervals pick the witness
@pytest.mark.parametrize("n", range(2, 61))
def test_two_scan_matches_brute_force(n):
    sample = collect_fractions(n)
    rep = discrepancy(n)
    assert rep.D_exact == brute_discrepancy(sample)
    assert rep.witness.deviation(sample) == rep.D_exact
    assert rep.D == float(rep.D_exact)
    assert rep.sample_size == len(sample.items)


# n: (D_exact, sample size, witness u, v, u_from_left, v_from_left)
DISCREPANCY_PINS = {
    100: (Fraction(474, 1825), 23, Fraction(27, 73), Fraction(46, 73), True, False),
    1000: (
        Fraction(3383, 47992), 161, Fraction(207, 857), Fraction(650, 857), False, True
    ),
    10**4: (
        Fraction(340872, 9528437), 1219,
        Fraction(2555, 7753), Fraction(5198, 7753), False, True,
    ),
    10**5: (
        Fraction(9538319, 941253368), 9567,
        Fraction(32562, 98129), Fraction(65567, 98129), False, True,
    ),
}


@pytest.mark.parametrize("n", sorted(DISCREPANCY_PINS))
def test_discrepancy_is_pinned(n):
    rep = discrepancy(n)
    w = rep.witness
    got = (rep.D_exact, rep.sample_size, w.u, w.v, w.u_from_left, w.v_from_left)
    assert got == DISCREPANCY_PINS[n]


def test_witness_tie_rule_is_pinned():
    # the earliest extremes win ties and a rise replaces the fall only when
    # strictly larger: the witness at n = 3, 4, 11 and 12 moves otherwise
    digest = hashlib.sha256()
    for n in range(2, 601):
        rep = discrepancy(n)
        w = rep.witness
        digest.update(f"{n},{rep.D_exact},{w.u},{w.v},{w.u_from_left},{w.v_from_left}\n".encode())
    assert digest.hexdigest() == (
        "3b34072740cf90f4b12c814e46eebe17cca08c07874bdb5161cca3319ba28c4a"
    )


def test_discrepancy_of_sample_takes_prepared_input():
    sample = collect_fractions(13)
    rep = discrepancy_of_sample(sample)
    assert rep.D_exact == Fraction(47, 78)


def test_witness_counting_conventions():
    sample = collect_fractions(5)
    w = Witness(
        u=Fraction(2, 5), v=Fraction(3, 5), u_from_left=True, v_from_left=False
    )
    # u approached from the left includes the point at u; v hit exactly
    # includes the point at v
    assert w.count(sample.items) == 3
    w = Witness(
        u=Fraction(2, 5), v=Fraction(3, 5), u_from_left=False, v_from_left=True
    )
    assert w.count(sample.items) == 1


def test_bv_function_validation_and_exact_calculus():
    tent = tent_map()
    assert tent(Fraction(1, 4)) == Fraction(1, 2)
    assert tent(Fraction(1, 2)) == 1
    assert tent.integral() == Fraction(1, 2)
    assert tent.variation() == 2
    ramp = BVFunction(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
    assert ramp(Fraction(3, 7)) == Fraction(3, 7)
    assert ramp.integral() == Fraction(1, 2)
    assert ramp.variation() == 1
    with pytest.raises(InvalidRangeError):
        BVFunction(((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1))))
    with pytest.raises(InvalidRangeError):
        BVFunction(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))


def test_monomial_map():
    sq = MonomialMap(2)
    assert sq(Fraction(1, 3)) == Fraction(1, 9)
    assert sq.integral() == Fraction(1, 3)
    assert sq.variation() == 1
    first = MonomialMap(1)
    assert first(Fraction(2, 7)) == Fraction(2, 7)
    assert first.integral() == Fraction(1, 2)


def test_equidistribution_hand_values():
    res = equidistribution_sum(constant_one(), 4, 14)
    assert res.sum == 4.0 and res.prediction == 4.0
    res = equidistribution_sum(identity_map(), 4, 14)
    assert res.sum == 2.0 and res.prediction == 2.0
    res = equidistribution_sum(square_map(), 4, 14)
    assert res.sum == pytest.approx(float(Fraction(13, 25) + Fraction(89, 169)))
    assert res.prediction == pytest.approx(4 / 3)


def test_identity_map_sums_exactly_to_prime_count():
    for lo, hi in ((2, 100), (100, 1000), (4, 14)):
        res = equidistribution_sum(identity_map(), lo, hi)
        assert res.sum == float(pi1_range(lo, hi))


def test_koksma_style_bound_holds():
    lo, hi = 1000, 2000
    rep = discrepancy(hi)
    size = 2 * pi1_range(lo, hi)
    for g in (constant_one(), identity_map(), square_map(), tent_map()):
        res = equidistribution_sum(g, lo, hi)
        assert abs(res.sum - res.prediction) <= float(g.variation()) * size * rep.D


def test_equisum_window_and_centered_n_past_their_ceilings_are_refused_before_any_work(
    monkeypatch,
):
    def refuse(*args):
        raise AssertionError("work started past the ceiling")

    monkeypatch.setattr(discrepancy_module, "prime_roots", refuse)
    with pytest.raises(InvalidRangeError, match="got hi = 100000000000100"):
        equidistribution_sum(constant_one(), 10**14, 10**14 + 100)
    with pytest.raises(InvalidRangeError, match="got hi - lo = 4000001"):
        equidistribution_sum(constant_one(), 0, 4 * 10**6 + 1)
    with pytest.raises(InvalidRangeError, match=f"got n = {MAX_N + 1}"):
        centered_fraction_sum(MAX_N + 1)


def test_centered_fraction_sum_hand_values():
    assert centered_fraction_sum(1) == 0.5
    assert centered_fraction_sum(5) == 0.5
    # frozen from a 50-digit rational evaluation of the same sum
    assert centered_fraction_sum(1000) == pytest.approx(-6.39114285828, abs=1e-9)


def test_centered_sum_brute_small():
    # direct evaluation over all primes <= 2n with exact fractions
    import sympy
    from quadlcm.roots import sqrt_minus_one

    for n in (1, 2, 5, 12, 30):
        total = Fraction(0)
        for p in sympy.primerange(2, 2 * n + 1):
            if p == 2:
                count = (n + 1) // 2  # odd i have 2 | i²+1
                total += count - Fraction(n, 2)
            elif p % 4 == 1:
                pair = sqrt_minus_one(p)
                for nu in (pair.nu1, pair.nu2):
                    count = sum(1 for i in range(1, n + 1) if i % p == nu)
                    total += count - Fraction(n, p)
        assert centered_fraction_sum(n) == pytest.approx(float(total), abs=1e-12), n


def test_decay_scan_shape():
    scan = decay_scan([100, 1000, 10000])
    assert [r.n for r in scan.reports] == [100, 1000, 10000]
    assert scan.fitted
    assert scan.exponent > 0
    assert scan.amplitude > 0
    two = decay_scan([100, 1000])
    assert not two.fitted
    assert two.exponent is None
    single = decay_scan([500])  # table-only, no fit
    assert len(single.reports) == 1 and not single.fitted
    with pytest.raises(InvalidRangeError):
        decay_scan([1000, 100])
    with pytest.raises(InvalidRangeError):
        decay_scan([1, 100, 1000])


def test_sample_refuses_n_past_its_ceiling_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the ceiling check")

    monkeypatch.setattr(discrepancy_module, "prime_roots", refuse)
    monkeypatch.setattr(discrepancy_module, "count_primes", refuse)
    ceiling = discrepancy_module.SAMPLE_MAX_N
    assert ceiling >= 10**7
    for call in (
        lambda: collect_fractions(ceiling + 1),
        lambda: discrepancy(ceiling + 1),
        lambda: decay_scan([100, 1000, ceiling + 1]),
    ):
        with pytest.raises(InvalidRangeError, match="work ceiling"):
            call()
    # an empty grid has no last point, and nothing to refuse
    assert decay_scan([]).reports == ()


# every consumer of roots.prime_roots pinned with ==, so that a change to
# the stream (its window edges, p = 2, the p ≡ 3 mod 4 primes) shows
CENTERED_PINS = {1: 0.5, 2: 0.0, 10: 0.2850678733031674, 10**4: -1.418183083687301}


@pytest.mark.parametrize("n", sorted(CENTERED_PINS))
def test_centered_fraction_sum_is_pinned(n):
    assert centered_fraction_sum(n) == CENTERED_PINS[n]


@pytest.mark.parametrize(
    "lo, hi, want",
    [(0, 10**4, (609.5, 609.0)), (1, 5, (1.5, 1.0)), (2, 3, (0.0, 0.0))],
)
def test_equidistribution_sum_is_pinned(lo, hi, want):
    assert tuple(equidistribution_sum(identity_map(), lo, hi)) == want


# n: (pi_n, sample size, sha256 of the sorted items as "num/den,...")
COLLECT_PINS = {
    2: (1, 1, "d939926f05444b0f4495fb9629ecbfa80d99a8ec1a20d06800ca5a3d5f4fd276"),
    3: (2, 1, "d939926f05444b0f4495fb9629ecbfa80d99a8ec1a20d06800ca5a3d5f4fd276"),
    5: (3, 3, "f0dccaa50931a6b79c0604961c6af9f39b7158ec5a5b1f9889b8b2b1834cd91a"),
    10**4: (
        1229, 1219, "c6f696a6a27300ba100f10f64d5e3387cc7d1e6504a0e26b3abcea7721fcfd9d"
    ),
}


@pytest.mark.parametrize("n", sorted(COLLECT_PINS))
def test_collect_fractions_is_pinned(n):
    s = collect_fractions(n)
    text = ",".join(f"{f.numerator}/{f.denominator}" for f in s.items)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (s.pi_n, len(s.items), digest) == COLLECT_PINS[n]
