"""Built-in invariant suites behind the `verify` CLI command.

Two levels share one checklist with different reach: quick keeps the
exact-integer oracle at n ≤ 200 and grids at 10^5, full pushes the oracle
to 2000 and grids toward 10^7.  Every check either passes or fails with a
message naming the violated property.  Convergence trends are left to
the acceptance test suite, which checks them in envelope form because the
sequences oscillate on correct data: the naive-B deviation times
sqrt(p_max) stays within 3x its value at p_max = 10^4, and the tail suprema
max_{j≥k} |r(n_j)|/n_j fall strictly two decades apart on 10^3..10^7.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from . import asymptotics, discrepancy, orders, primes, roots
from .dirichlet import LAMBDA, em_series, neg_log_deriv_zeta, zeta_em
from .errors import EmptySampleError, NotOneModFourError
from .summation import GAMMA, geometric, log_of_bigint


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerifyParams:
    oracle_cap: int
    root_modulus_cap: int
    grid_max: int
    decomposition_max: int
    discrepancy_max: int
    residual_max: int
    koksma_max: int
    psi_oracle_max: int
    envelope_n: int
    workers_check_n: int
    log_P_fsum_n: int


QUICK = VerifyParams(
    oracle_cap=200,
    root_modulus_cap=5_000,
    grid_max=10**5,
    decomposition_max=10**3,
    discrepancy_max=10**4,
    residual_max=10**4,
    koksma_max=10**4,
    psi_oracle_max=2_000,
    envelope_n=500,
    workers_check_n=10**4,
    log_P_fsum_n=10**5,
)

FULL = VerifyParams(
    oracle_cap=2_000,
    root_modulus_cap=10**5,
    grid_max=10**7,
    decomposition_max=10**5,
    discrepancy_max=10**6,
    residual_max=10**6,
    koksma_max=10**5,
    psi_oracle_max=10**4,
    envelope_n=2_000,
    workers_check_n=1_100_000,
    log_P_fsum_n=10**6,
)


def _require(cond: bool, msg: str) -> None:
    """Fail the running check with msg; unlike assert, survives python -O."""
    if not cond:
        raise AssertionError(msg)


def _trial_factor(m: int, trial_limit: int) -> tuple[dict[int, int], int]:
    """Factor out primes ≤ trial_limit; returns (factors, cofactor)."""
    fac: dict[int, int] = {}
    d = 2
    while d <= trial_limit and d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if 1 < m <= trial_limit:
        fac[m] = fac.get(m, 0) + 1
        m = 1
    return fac, m


def check_sieve_windows(p: VerifyParams) -> str:
    _require(primes.sieve_range(0, 10).primes == (2, 3, 5, 7), "primes in (0,10]")
    _require(primes.sieve_range(10, 20).primes == (11, 13, 17, 19), "primes in (10,20]")
    _require(primes.sieve_range(1, 1).primes == (), "empty window (1,1]")
    a, b, c = 0, 537, 1500
    seam = primes.sieve_range(a, b).primes + primes.sieve_range(b, c).primes
    _require(seam == primes.sieve_range(a, c).primes, "segmentation seam mismatch")
    pc = primes.prime_counts(10**4)
    _require(pc.pi == len(primes.sieve_range(0, 10**4).primes), "pi vs sieve count")
    _require(primes.prime_counts(10).pi == 4 and primes.prime_counts(10).pi1 == 1,
             "pi(10) and pi1(10)")
    _require(primes.prime_counts(100).pi1 == 11, "pi1(100)")
    _require(primes.prime_counts(4).pi1 == 0, "pi1(4)")
    # the 1 mod 4 view and the mask counts against the all-primes walk
    for top, segment in ((10**4, 64), (p.grid_max, primes.DEFAULT_SEGMENT)):
        view = primes.iter_primes_one_mod_four(0, top, segment)
        walk = (q for q in primes.iter_primes(0, top, segment) if q % 4 == 1)
        _require(all(a == b for a, b in zip_longest(view, walk)),
                 f"1 mod 4 view differs from the filtered primes up to {top}")
    residues = Counter(q % 4 for q in primes.iter_primes(0, p.grid_max))
    pc = primes.prime_counts(p.grid_max)
    _require(primes.count_primes(0, p.grid_max) == pc.pi == residues.total(),
             f"mask count differs from pi({p.grid_max})")
    _require(pc.pi1 == residues[1], f"mask count differs from pi1({p.grid_max})")
    return f"seams, counts and the 1 mod 4 view consistent up to {p.grid_max}"


def check_psi_oracle(p: VerifyParams) -> str:
    _require(primes.chebyshev_psi(1) == 0.0, "psi(1)")
    _require(primes.chebyshev_psi(2) == math.log(2), "psi(2)")
    _require(abs(primes.chebyshev_psi(10) - math.log(2520)) < 1e-12, "psi(10)")
    acc = 1
    checkpoints = {10, 100, 1000, p.psi_oracle_max}
    for n in range(1, p.psi_oracle_max + 1):
        acc = math.lcm(acc, n)
        if n in checkpoints:
            want = log_of_bigint(acc)
            got = primes.chebyshev_psi(n)
            _require(abs(got - want) <= 1e-9 * want, f"psi({n}) vs integer lcm oracle")
    return f"psi equals log lcm(1..n) to 1e-9 up to n={p.psi_oracle_max}"


def check_pnt_ratios(p: VerifyParams) -> str:
    for n in geometric(10**5, p.grid_max):
        pc = primes.prime_counts(n)
        ratio = pc.pi1 * 2 * math.log(n) / n
        _require(0.8 <= ratio <= 1.2,
                 f"pi1 ratio {ratio:.4f} out of [0.8,1.2] at n={n}")
        psi_ratio = primes.chebyshev_psi(n) / n
        _require(0.9 <= psi_ratio <= 1.1,
                 f"psi/n {psi_ratio:.4f} out of [0.9,1.1] at n={n}")
    return f"pi1 and psi ratios in range up to {p.grid_max}"


def check_root_pairs(p: VerifyParams) -> str:
    pair5 = roots.sqrt_minus_one(5)
    _require((pair5.nu1, pair5.nu2) == (2, 3), "roots mod 5")
    pair13 = roots.sqrt_minus_one(13)
    _require((pair13.nu1, pair13.nu2) == (5, 8), "roots mod 13")
    try:
        roots.sqrt_minus_one(3)
        raise AssertionError("p=3 must refuse a root pair")
    except NotOneModFourError:
        pass
    _require(roots.roots_mod_prime_power(5, 2).as_set() == {7, 18}, "roots mod 5^2")
    _require(roots.roots_mod_prime_power(5, 3).as_set() == {57, 68}, "roots mod 5^3")
    _require(roots.roots_mod_prime_power(13, 2).as_set() == {70, 99}, "roots mod 13^2")
    _require(roots.min_root(5, 1) == 2 and roots.min_root(5, 2) == 7,
             "min_root mod 5 and 5^2")
    _require(roots.min_root(13, 2) == 70, "min_root mod 13^2")
    items = [(it.p, it.nu) for it in roots.root_stream(4, 14)]
    _require(items == [(5, 2), (5, 3), (13, 5), (13, 8)], "root_stream (4,14]")
    items = [(it.p, it.nu) for it in roots.root_stream(1, 5)]
    _require(items == [(2, 1), (5, 2), (5, 3)], "root_stream (1,5]")
    _require(list(roots.root_stream(5, 12)) == [], "root_stream (5,12]")

    cap = p.root_modulus_cap
    stream = list(roots.prime_roots(0, cap))
    _require([q for q, _ in stream] == [q for q in primes.iter_primes(0, cap) if q % 4 == 1],
             f"prime_roots primes differ from the p ≡ 1 mod 4 up to {cap}")
    for q, nu in stream:
        _require((nu * nu + 1) % q == 0 and 0 < 2 * nu < q,
                 f"prime_roots gives ν = {nu} for p = {q}, not the smaller root")
    checked = 0
    for q in primes.iter_primes(0, cap):
        if q % 4 != 1:
            continue
        a = 1
        qa = q
        while qa <= cap:
            pair = roots.roots_mod_prime_power(q, a)
            _require((pair.nu1 * pair.nu1 + 1) % qa == 0, f"congruence {q}^{a}")
            _require(pair.nu1 + pair.nu2 == qa, f"pair symmetry {q}^{a}")
            if a > 1:
                prev = roots.roots_mod_prime_power(q, a - 1)
                reduced = {pair.nu1 % (qa // q), pair.nu2 % (qa // q)}
                _require(reduced == prev.as_set(), f"lift consistency {q}^{a}")
            brute = [x for x in range(1, qa + 1) if (x * x + 1) % qa == 0]
            _require(brute == [pair.nu1, pair.nu2], f"exhaustive roots {q}^{a}")
            checked += 1
            a += 1
            qa *= q
    return (f"{checked} prime-power moduli ≤ {cap} match brute-force root scans, "
            f"{len(stream)} stream roots are the smaller root")


def check_count_solutions_upto(p: VerifyParams) -> str:
    got = orders.count_solutions_upto(5, 2, 10)
    _require(got == 1,
             f"count_solutions_upto(5,2,10) = {got}, want 1: the two floors must "
             "round toward -infinity (truncation toward zero gives 2)")
    _require(orders.count_solutions_upto(5, 1, 10) == 4, "count_solutions_upto(5,1,10)")
    _require(orders.count_solutions_upto(5, 3, 10) == 0, "count_solutions_upto(5,3,10)")
    _require(orders.alpha_exact(5, 10) == 5 and orders.alpha_exact(3, 100) == 0,
             "alpha_exact examples")
    _require(orders.alpha_exact(2, 10) == 5, "alpha_exact(2,10)")
    _require(orders.beta_exact(5, 10) == 2 and orders.beta_exact(2, 7) == 1,
             "beta_exact examples")
    _require(orders.beta_exact(101, 10) == 1 and orders.beta_exact(101, 9) == 0,
             "beta_exact(101, n) switches on at n=10")
    _require(orders.alpha_star(5, 10) == 4 and orders.alpha_star(3, 50) == 0,
             "alpha_star examples")
    _require(orders.alpha_star(13, 10) == 2, "alpha_star(13,10)")
    # telescoping: level counts sum to alpha
    for q, n in ((5, 100), (13, 500), (17, 2000)):
        total = 0
        a = 1
        while q**a <= n * n + 1:
            total += orders.count_solutions_upto(q, a, n)
            a += 1
        _require(total == orders.alpha_exact(q, n), f"telescoping {q}, n={n}")
    return "floor semantics and order examples exact"


def check_lcm_oracle(p: VerifyParams) -> str:
    acc = 1
    prod = 1
    worst = 0.0
    prev = 0.0
    for n in range(1, p.oracle_cap + 1):
        acc = math.lcm(acc, n * n + 1)
        prod *= n * n + 1
        want = log_of_bigint(acc)
        ev = orders.log_lcm_exact(n)
        # log_of_bigint(P) = fl(log fl(m) + fl(e · fl(ln 2))) with m = P >> e
        # of 53 bits; with r = log P and u = ulp(r) > r·2^-53, its errors
        # are: m's truncation < 2^-52 <= u/32 (r > 36 once e > 0), log m
        # < 1 ulp(log m) <= u, fl(ln 2) times e <= e·2^-54 < 0.73 u (as
        # e·ln 2 <= r), and two roundings of u/2 each: under 2.8 u in all.
        # log_P is correctly rounded (u/2), so the two differ by under 4 u,
        # u taken at the larger of the two.
        want_p = log_of_bigint(prod)
        _require(abs(ev.log_P - want_p) <= 4 * math.ulp(max(ev.log_P, want_p)),
                 f"log_P({n}) = {ev.log_P!r}, exact product gives {want_p!r}")
        rel = abs(ev.log_L - want) / want
        worst = max(worst, rel)
        _require(rel <= 1e-9, f"log L mismatch at n={n}: rel {rel:.2e}")
        _require(ev.log_L <= ev.log_P + 1e-12, f"log L > log P at n={n}")
        # the integer L_n is nondecreasing, but consecutive evaluations are
        # assembled independently, so allow a few ulp of reassociation slack
        _require(ev.log_L >= prev - 1e-14 * max(1.0, prev), f"log L decreased at n={n}")
        prev = ev.log_L
    # far out, against a plain sum of per-term logs: each term is off by at
    # most ulp(log n²)/2, the fsum and log_P each round once more
    n = p.log_P_fsum_n
    want = math.fsum(math.log(i * i + 1) for i in range(1, n + 1))
    got = orders.log_P(n)
    bound = n * math.ulp(2 * math.log(n)) / 2 + math.ulp(want)
    _require(abs(got - want) <= bound,
             f"log_P({n}) = {got!r}, per-term fsum gives {want!r}")
    return f"exact vs oracle to n={p.oracle_cap}, worst rel {worst:.2e}"


def check_two_adic(p: VerifyParams) -> str:
    for n in range(1, 10**4 + 1):
        want = (n + 1) // 2
        _require(orders.alpha_exact(2, n) == want, f"alpha(2,{n})")
    for n in (1, 7, 50, 1234):
        ev = orders.log_lcm_exact(n)
        _require(ev.two_term == ((n + 1) // 2 - 1) * math.log(2.0), f"two_term n={n}")
    return "p=2 closed form exact to 10^4"


def check_high_prime_orders(p: VerifyParams) -> str:
    # primes above 2n found by factoring the sequence must have alpha = beta
    bound = 300
    seen: set[int] = set()
    for i in range(1, bound + 1):
        fac, cof = _trial_factor(i * i + 1, 2 * bound)
        if cof > 1:
            seen.add(cof)
    _require(seen, "no large primes found factoring the sequence")
    for q in sorted(seen):
        _require(q > 2 * bound, f"cofactor {q} is not a large prime")
        _require(orders.alpha_exact(q, bound) == orders.beta_exact(q, bound),
                 f"alpha != beta for p={q} > 2n")
    return f"{len(seen)} primes beyond 2n have alpha = beta at n={bound}"


def check_decomposition(p: VerifyParams) -> str:
    rep10 = orders.decomposition_report(10)
    want = math.log(5) + math.log(13) + math.log(17)
    _require(abs(rep10.beta_star_sum - want) < 1e-12, "beta* sum at n=10")
    for n in geometric(100, p.decomposition_max):
        rep = orders.decomposition_report(n)
        _require(rep.identity_residue == 0, f"three-sum identity broken at n={n}")
        ev = orders.log_lcm_exact(n)
        recombined = (
            rep.two_correction + rep.small_sum
            - (rep.medium_high_sum + rep.beta_star_sum - rep.alpha_star_sum)
        )
        _require(
            abs(recombined - ev.correction) <= 1e-9 * max(1.0, abs(ev.correction)),
            f"decomposition pieces disagree with correction at n={n}",
        )
    n = 10**3
    rep = orders.decomposition_report(n)
    direct = math.fsum(
        (prof.beta - prof.alpha) * math.log(prof.p)
        for prof in (
            orders.order_profile(q, n)
            for q in primes.iter_primes(2, 2 * n)
            if q % 4 == 1 and q * q * q >= n * n
        )
    )
    combo = rep.medium_high_sum + rep.beta_star_sum - rep.alpha_star_sum
    _require(abs(direct - combo) < 1e-9, "medium identity float recombination")
    return "three-sum identity exact, pieces recombine"


def check_medium_coefficient_sign(p: VerifyParams) -> str:
    # medium (beta - alpha) = two_correction-free pieces; also check the
    # published example values of square divisor primes
    _require(orders.square_divisor_primes(10) == [5], "square divisor primes at n=10")
    _require(orders.square_divisor_primes(3) == [], "square divisor primes at n=3")
    _require(orders.square_divisor_primes(7) == [5], "square divisor primes at n=7")
    for n in geometric(10**3, min(p.decomposition_max * 10, 10**6)):
        count = len(orders.square_divisor_primes(n))
        cap = 8 * n ** (2 / 3)
        _require(count <= cap, f"bad-prime census {count} > {cap:.0f} at n={n}")
    # brute comparison at n ≤ 300: factor every i²+1; a cofactor above 2n
    # is a single prime to the first power, so it can never join the census
    n = 300
    brute: set[int] = set()
    for i in range(1, n + 1):
        fac, cof = _trial_factor(i * i + 1, 2 * n)
        _require(cof == 1 or cof > 2 * n, f"incomplete factorization of {i * i + 1}")
        for q, e in fac.items():
            if e >= 2 and q % 4 == 1 and q**3 >= n * n and q <= 2 * n:
                brute.add(q)
    _require(sorted(brute) == orders.square_divisor_primes(n), "brute bad primes n=300")
    return "square-divisor censuses match brute force and stay within 8 n^(2/3)"


def check_order_envelope(p: VerifyParams) -> str:
    n = p.envelope_n
    slack = 4 * math.log(n * n + 1)
    for q in primes.iter_primes(2, 2 * n):
        if q % 4 != 1:
            continue
        alpha = orders.alpha_exact(q, n)
        _require(abs(alpha - 2 * n / (q - 1)) <= slack / math.log(q),
                 f"alpha envelope broken at p={q}, n={n}")
    return f"alpha within 4 log(n²+1)/log p of 2n/(p-1) at n={n}"


def check_profile_invariants(p: VerifyParams) -> str:
    for q in primes.iter_primes(0, 200):
        for n in (1, 10, 137, 1000):
            prof = orders.order_profile(q, n)
            _require(prof.alpha >= prof.beta >= 0, f"alpha>=beta p={q} n={n}")
            _require(prof.alpha >= prof.alpha_star >= prof.beta_star,
                     f"stars p={q} n={n}")
            if q % 4 == 3:
                _require(
                    prof.alpha == prof.beta == prof.alpha_star == prof.beta_star == 0,
                    f"p={q} ≡ 3 mod 4 must have all orders 0",
                )
            _require(prof.beta * math.log(q) <= math.log(n * n + 1) + 1e-12,
                     f"beta log p exceeds log(n²+1) p={q} n={n}")
            want_bs = 1 if (q == 2 or q % 4 == 1) and prof.alpha_star >= 1 else 0
            _require(prof.beta_star == want_bs, f"beta_star definition p={q} n={n}")
    return "order profiles satisfy all inequalities"


def check_discrepancy_hand_values(p: VerifyParams) -> str:
    s5 = discrepancy.collect_fractions(5)
    _require(s5.items == (Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)),
             "sample at n=5")
    _require(s5.pi_n == 3, "pi(5)")
    s4 = discrepancy.collect_fractions(4)
    _require(s4.items == (Fraction(1, 2),) and s4.pi_n == 2, "sample at n=4")
    s13 = discrepancy.collect_fractions(13)
    _require(len(s13.items) == 5 and s13.pi_n == 6, "sample size and pi at n=13")
    try:
        discrepancy.collect_fractions(1)
        raise AssertionError("n=1 must raise EmptySampleError")
    except EmptySampleError:
        pass
    for n, want in ((2, Fraction(1)), (5, Fraction(4, 5)), (13, Fraction(47, 78))):
        rep = discrepancy.discrepancy(n)
        _require(rep.D_exact == want, f"D({n}) = {rep.D_exact}, want {want}")
        sample = discrepancy.collect_fractions(n)
        _require(rep.witness.deviation(sample) == rep.D_exact, f"witness replay n={n}")
    rep13 = discrepancy.discrepancy(13)
    _require((rep13.witness.u, rep13.witness.v) == (Fraction(5, 13), Fraction(8, 13)),
             "witness interval at n=13")
    return "hand discrepancies and witnesses exact"


def check_discrepancy_decay(p: VerifyParams) -> str:
    grid = geometric(100, p.discrepancy_max)
    scan = discrepancy.decay_scan(grid)
    reps = scan.reports
    for a, b in zip(reps, reps[1:]):
        _require(b.D_exact < a.D_exact, f"D({b.n}) >= D({a.n})")
    for rep in reps:
        sample = discrepancy.collect_fractions(rep.n)
        _require(rep.witness.deviation(sample) == rep.D_exact,
                 f"witness replay n={rep.n}")
    if len(grid) >= 3:
        _require(scan.exponent is not None and scan.exponent > 0, "decay fit exponent")
    return f"D strictly decreasing over {grid}, witnesses replay exactly"


def check_equidistribution_sums(p: VerifyParams) -> str:
    g1 = discrepancy.constant_one()
    gt = discrepancy.identity_map()
    gsq = discrepancy.square_map()
    tent = discrepancy.tent_map()
    s = discrepancy.equidistribution_sum(g1, 4, 14)
    _require(s.sum == 4.0 and s.prediction == 4.0, "g=1 on (4,14]")
    s = discrepancy.equidistribution_sum(gt, 4, 14)
    _require(s.sum == 2.0 and s.prediction == 2.0, "g=t on (4,14]")
    s = discrepancy.equidistribution_sum(gsq, 4, 14)
    want = float(Fraction(13, 25) + Fraction(89, 169))
    _require(abs(s.sum - want) < 1e-15 and abs(s.prediction - 4 / 3) < 1e-15, "g=t²")
    odd = discrepancy.BVFunction(
        ((Fraction(0), Fraction(-1, 2)), (Fraction(1), Fraction(1, 2)))
    )
    for lo, hi in ((2, 1000), (10**3, 4 * 10**3)):
        _require(discrepancy.equidistribution_sum(odd, lo, hi).sum == 0.0,
                 f"odd-symmetric sum not exactly 0 on ({lo},{hi}]")
    for n in geometric(10**3, p.koksma_max):
        lo, hi = n, 2 * n
        dsc = discrepancy.discrepancy(hi)
        pi1 = primes.pi1_range(lo, hi)
        for g in (g1, gt, gsq, tent):
            res = discrepancy.equidistribution_sum(g, lo, hi)
            bound = float(g.variation()) * (2 * pi1) * dsc.D
            _require(abs(res.sum - res.prediction) <= bound + 1e-12,
                     f"variation bound broken on ({lo},{hi}]")
        res = discrepancy.equidistribution_sum(gt, lo, hi)
        _require(res.sum == float(pi1), f"g=t identity not exact on ({lo},{hi}]")
    return "weighted sums match predictions within variation bounds"


def check_centered_sum(p: VerifyParams) -> str:
    _require(discrepancy.centered_fraction_sum(1) == 0.5, "centered n=1")
    _require(discrepancy.centered_fraction_sum(5) == 0.5, "centered n=5")
    first = None
    for n in geometric(10**3, p.grid_max):
        v = abs(discrepancy.centered_fraction_sum(n)) * math.log(n) ** 1.4 / n
        if first is None:
            first = v
        _require(v <= 3 * first + 1e-12, f"centered sum growth at n={n}")
    return "centered sum normalized values bounded by 3x first grid point"


def check_prime_harmonics(p: VerifyParams) -> str:
    _require(asymptotics.mertens_log_sum(4) == math.log(3) / 2, "mertens x=4")
    _require(abs(asymptotics.mertens_log_sum(10) - 1.27598397) < 1e-6, "mertens x=10")
    _require(asymptotics.character_log_sum(4) == -math.log(3) / 2, "charsum x=4")
    _require(abs(asymptotics.character_log_sum(10) - (-0.47126501)) < 1e-6,
             "charsum x=10")
    s_limit = asymptotics.compute_B("accelerated").s_value
    prev_dev = None
    for n in geometric(10**3, p.grid_max):
        mert, char = asymptotics._prime_harmonic_sums(2 * n)
        dev = abs(mert - (math.log(n) - float(GAMMA)))
        _require(dev * math.log(n) <= 5.0, f"Mertens envelope at n={n}: {dev:.4g}")
        cdev = abs(char - s_limit)
        if prev_dev is not None:
            _require(cdev <= 2 * prev_dev, f"character sum deviation doubled at n={n}")
        prev_dev = cdev
    _require(abs(asymptotics.character_log_sum(2 * 10**6) - s_limit) <= 0.01,
             "character sum at 2e6 within 0.01 of its limit")
    return "Mertens envelope and character-sum convergence hold"


def check_constant_b(p: VerifyParams) -> str:
    ev = asymptotics.compute_B("accelerated")
    _require(-0.0662756392 <= ev.value <= -0.0662756292, f"B window: {ev.value}")
    recombined = ev.gamma_used - 1.0 - asymptotics.HALF_LOG2 - ev.s_value
    _require(ev.value == recombined, "recombination identity not exact")
    e16 = asymptotics.compute_B("accelerated", depth=16)
    gap = abs(
        (Fraction(e16.value_hi) + Fraction(e16.value_lo))
        - (Fraction(ev.value_hi) + Fraction(ev.value_lo))
    )
    _require(float(gap) <= e16.tail_bound + ev.tail_bound, "depth nesting bound")
    naive = asymptotics.compute_B("naive", p_max=10**6)
    _require(abs(naive.value - ev.value) <= 0.05, "naive(10^6) within 0.05")
    # recursion identity at s=2: sum of trivial P over even arguments
    base, em_tail = neg_log_deriv_zeta(2)
    total = Fraction(0)
    bound = em_tail
    m = 1
    while 2 * m <= 64:
        ps = asymptotics.prime_log_power_sum(2 * m, asymptotics.CHAR_TRIVIAL)
        total += Fraction(ps.hi) + Fraction(ps.lo)
        bound += ps.tail_bound
        m += 1
    bound += asymptotics._dropped_args_bound(2 * m, 2, odd_only=False)
    gap = abs(float(total - Fraction(base)))
    _require(gap <= bound + 1e-28, "log-derivative identity")
    # the odd-integer series behind the principal character is (1 − 2^-s) zeta(s)
    for s in (2, 3, 16, 64):
        lam = Fraction(em_series(*LAMBDA, s).value)
        want = Fraction(zeta_em(s).value) * (1 - Fraction(1, 2**s))
        _require(abs(lam - want) <= lam / 10**38, f"lambda({s}) = (1 - 2^-s) zeta({s})")
    # direct-summation cross-check of the trivial power sum at s=2
    x = 10**5 if p.oracle_cap <= 200 else 10**6
    direct = math.fsum(math.log(q) / (q * q) for q in primes.iter_primes(0, x))
    tail_env = (math.log(x) + 1.0) / x
    ps2 = asymptotics.prime_log_power_sum(2, asymptotics.CHAR_TRIVIAL)
    _require(abs(ps2.value - direct) <= tail_env, "P(2) vs direct summation")
    return f"B = {ev.value:.10f}, all truncation bounds honored"


def check_residuals(p: VerifyParams) -> str:
    reps = asymptotics.residual_scan([1, 10])
    _require(abs(reps[1].r - (-1.1133)) < 2e-3, f"r(10) = {reps[1].r:.4f}")
    _require(abs(reps[0].r - 0.7594) < 2e-3, f"r(1) = {reps[0].r:.4f}")
    grid = geometric(10**3, p.residual_max)
    reps = asymptotics.residual_scan(grid)
    ref = abs(reps[0].normalized)
    cal = abs(reps[0].eq6_vs_exact) * math.log(reps[0].n) ** 0.44 / reps[0].n
    for rep in reps[1:]:
        _require(abs(rep.normalized) <= 3 * ref,
                 f"normalized residual at n={rep.n} exceeds 3x the first grid point")
        val = abs(rep.eq6_vs_exact) * math.log(rep.n) ** 0.44 / rep.n
        _require(val <= cal,
                 f"finite-sum assembly drift at n={rep.n}: {val:.4g} > {cal:.4g}")
    return f"residual hand values and assembly calibration hold on {grid}"


def check_worker_determinism(p: VerifyParams) -> str:
    # a pool opens only from two blocks on (2n > DEFAULT_SEGMENT); the block
    # partials are compared too, since two blocks reduced in the wrong order
    # can still round to the same sum
    n = p.workers_check_n
    one = orders.log_lcm_exact(n, workers=1)
    two = orders.log_lcm_exact(n, workers=2)
    _require(one == two, "worker count changed the evaluation")
    _require(orders._correction_partials(n, 1) == orders._correction_partials(n, 2),
             "worker count changed the correction blocks")
    d1 = orders.decomposition_report(n, workers=1)
    d3 = orders.decomposition_report(n, workers=3)
    _require(d1 == d3, "worker count changed the decomposition")
    _require(orders._ledger_partials(n, 1) == orders._ledger_partials(n, 3),
             "worker count changed the decomposition blocks")
    blocks = len(orders._blocks(n))
    return f"1-, 2- and 3-worker results bit-identical at n={n} ({blocks} blocks)"


_CHECKS = [
    ("sieve windows and prime counts", check_sieve_windows),
    ("chebyshev psi vs integer-lcm oracle", check_psi_oracle),
    ("prime counting ratios on the grid", check_pnt_ratios),
    ("root pairs, lifting, exhaustive scans", check_root_pairs),
    ("count_solutions_upto floor semantics", check_count_solutions_upto),
    ("log_lcm_exact vs big-integer oracle", check_lcm_oracle),
    ("p=2 exact order formula", check_two_adic),
    ("primes beyond 2n contribute nothing", check_high_prime_orders),
    ("decomposition three-sum identity", check_decomposition),
    ("square-divisor prime census", check_medium_coefficient_sign),
    ("alpha envelope around 2n/(p-1)", check_order_envelope),
    ("order profile inequalities", check_profile_invariants),
    ("hand discrepancies and witnesses", check_discrepancy_hand_values),
    ("discrepancy decay along the grid", check_discrepancy_decay),
    ("weighted equidistribution sums", check_equidistribution_sums),
    ("centered fractional sum", check_centered_sum),
    ("Mertens and character prime sums", check_prime_harmonics),
    ("constant B evaluations", check_constant_b),
    ("residuals against the main term", check_residuals),
    ("deterministic parallel reduction", check_worker_determinism),
]


def run_verify(level: str = "quick") -> list[CheckResult]:
    if level == "quick":
        params = QUICK
    elif level == "full":
        params = FULL
    else:
        raise ValueError(f"unknown verify level {level!r}, expected 'quick' or 'full'")
    results: list[CheckResult] = []
    for name, fn in _CHECKS:
        try:
            detail = fn(params)
            results.append(CheckResult(name=name, ok=True, detail=detail))
        except AssertionError as exc:
            results.append(CheckResult(name=name, ok=False, detail=str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            results.append(
                CheckResult(name=name, ok=False, detail=f"{type(exc).__name__}: {exc}")
            )
    return results
