"""Equidistribution of the root fractions nu/p.

The sample at bound n holds every fraction nu/p with nu² ≡ −1 mod p and
p ≤ n: one fraction (1/2) for p = 2, an exact mirror pair for p ≡ 1 mod 4,
nothing for p ≡ 3 mod 4.  Counting is normalized by pi(n) over all primes,
so the sample "mass" tops out near 2·pi1(n)/pi(n) ≈ 1.

The sample sorts by an exact integer key, and the discrepancy is one pass
over g_j = x_j − j/pi(n) in exact rationals; floats appear only in final
report fields.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Protocol

from .errors import EmptySampleError, InvalidRangeError
from .primes import SAMPLE_MAX_N, _require_within, count_primes
from .roots import MAX_N, prime_roots, require_root_window


@dataclass(frozen=True)
class FractionSample:
    n: int
    items: tuple[Fraction, ...]
    pi_n: int


@dataclass(frozen=True)
class Witness:
    """The interval (u, v] attaining the supremum.

    u_from_left / v_from_left mark endpoints realized as left limits: a
    True u_from_left means the interval closes onto u (a sample point at
    u is counted); a True v_from_left means v is approached from below
    (a sample point at v is excluded).
    """

    u: Fraction
    v: Fraction
    u_from_left: bool
    v_from_left: bool

    def count(self, points: tuple[Fraction, ...]) -> int:
        c = 0
        for x in points:
            above = x > self.u or (self.u_from_left and x == self.u)
            below = x < self.v or (x == self.v and not self.v_from_left)
            if above and below:
                c += 1
        return c

    def deviation(self, sample: FractionSample) -> Fraction:
        spread = self.v - self.u
        return abs(spread - Fraction(self.count(sample.items), sample.pi_n))


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    D: float
    D_exact: Fraction
    witness: Witness
    sample_size: int


def collect_fractions(n: int) -> FractionSample:
    """All root fractions for primes up to n, sorted, with pi(n).

    The sample is symmetric under x ↦ 1 − x about its centre 1/2 (p = 2),
    so only the smaller roots nu/p < 1/2 are sorted, by the exact integer
    key ⌊nu·2^k/p⌋ with k = 2·n.bit_length(); the upper half is their
    reflections in reverse order.  Each Fraction is built once, in order.
    No two root fractions coincide (nu/p = nu'/q with p ≠ q would need
    p | nu), and distinct ones with p, q ≤ n differ by at least
    1/(pq) ≥ 1/n² > 2^−k, so scaled by 2^k they lie more than 1 apart and
    their floors differ.  n past SAMPLE_MAX_N is refused before any work.
    """
    if n < 2:
        raise EmptySampleError(f"no primes up to {n}, sample undefined")
    _require_within(n, SAMPLE_MAX_N)
    k = 2 * n.bit_length()
    lower = sorted(prime_roots(0, n), key=lambda r: (r[1] << k) // r[0])
    items = (
        *(Fraction(nu, p) for p, nu in lower),
        Fraction(1, 2),
        *(Fraction(p - nu, p) for p, nu in reversed(lower)),
    )
    return FractionSample(n=n, items=items, pi_n=count_primes(0, n))


def discrepancy_of_sample(sample: FractionSample) -> DiscrepancyReport:
    """Exact sup over intervals (u, v] of |length − count/pi(n)|.

    The sup is attained with u and v at sample points or interval ends,
    possibly as left limits.  With P = pi(n), sentinels x_0 = 0 and
    x_{N+1} = 1, and g_j = x_j − j/P, a point-heavy window [x_i, x_j]
    (1 ≤ i ≤ j ≤ N) deviates by (j−i+1)/P − (x_j − x_i) = 1/P + g_i − g_j,
    a fall of g, and a point-light window (x_i, x_k) (0 ≤ i < k ≤ N+1) by
    (x_k − x_i) − (k−i−1)/P = 1/P + g_k − g_i, a rise of g.  So
    D = 1/P + max(largest fall, largest rise), from one pass that keeps the
    running max of g over 1..j and its min over 0..j.  The earliest maxima
    win ties, and a rise replaces the fall only when strictly larger.
    """
    N, P = len(sample.items), sample.pi_n
    xs = (Fraction(0), *sample.items, Fraction(1))
    # g_j over the common denominator p·P: one normalization per point
    g = [
        Fraction(x.numerator * P - j * x.denominator, x.denominator * P)
        for j, x in enumerate(xs)
    ]
    top, fall, fall_at = 1, Fraction(0), (1, 1, True)
    low, rise, rise_at = 0, g[1], (0, 1, False)
    # a fall beats the best when g_j < g_top − fall (never at a new top), a
    # rise when g_k > g_low + rise; the bars move only when top, low or a best does
    floor = ceil = g[1]
    for j in range(1, N + 1):
        here = g[j]
        if here > g[top]:
            top, floor = j, here - fall
        elif here < floor:
            fall, fall_at, floor = g[top] - here, (top, j, True), here
        if here < g[low]:
            low, ceil = j, here + rise
        if g[j + 1] > ceil:
            ceil = g[j + 1]
            rise, rise_at = ceil - g[low], (low, j + 1, False)
    best, (i, k, closed) = (rise, rise_at) if rise > fall else (fall, fall_at)
    d = Fraction(1, P) + best
    w = Witness(u=xs[i], v=xs[k], u_from_left=closed, v_from_left=not closed)
    return DiscrepancyReport(
        n=sample.n, D=float(d), D_exact=d, witness=w, sample_size=N
    )


def discrepancy(n: int) -> DiscrepancyReport:
    return discrepancy_of_sample(collect_fractions(n))


# the package exports discrepancy() under this name: `quadlcm.discrepancy`
# is the submodule
interval_discrepancy = discrepancy


class TestFunction(Protocol):
    """What a test function must provide: exact evaluation on rationals,
    an exact integral over [0,1], and its total variation."""

    def __call__(self, t: Fraction) -> Fraction: ...

    def integral(self) -> Fraction: ...

    def variation(self) -> Fraction: ...


@dataclass(frozen=True)
class BVFunction:
    """Piecewise-linear function on [0,1] with rational breakpoints.

    breakpoints are (x, y) pairs, x strictly increasing from 0 to 1.
    Integral and variation are exact.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.breakpoints]
        if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1:
            raise InvalidRangeError("breakpoints must run from x=0 to x=1")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InvalidRangeError("breakpoint abscissae must strictly increase")

    def __call__(self, t: Fraction) -> Fraction:
        k = bisect_right(self.breakpoints, t, key=itemgetter(0)) - 1
        if k == len(self.breakpoints) - 1:
            return self.breakpoints[-1][1]
        x0, y0 = self.breakpoints[k]
        x1, y1 = self.breakpoints[k + 1]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    def integral(self) -> Fraction:
        acc = Fraction(0)
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            acc += (x1 - x0) * (y0 + y1) / 2
        return acc

    def variation(self) -> Fraction:
        return sum(
            (abs(y1 - y0) for (_, y0), (_, y1) in zip(self.breakpoints, self.breakpoints[1:])),
            Fraction(0),
        )


@dataclass(frozen=True)
class MonomialMap:
    """g(t) = t^k on [0,1]; monotone, so the variation is exactly 1."""

    k: int = 2

    def __call__(self, t: Fraction) -> Fraction:
        return t**self.k

    def integral(self) -> Fraction:
        return Fraction(1, self.k + 1)

    def variation(self) -> Fraction:
        return Fraction(1)


def constant_one() -> BVFunction:
    return BVFunction(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))))


def identity_map() -> BVFunction:
    return BVFunction(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))


def tent_map() -> BVFunction:
    return BVFunction(
        (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1)),
            (Fraction(1), Fraction(0)),
        )
    )


def square_map() -> MonomialMap:
    return MonomialMap(2)


class EquidistributionSum(NamedTuple):
    sum: float
    prediction: float


def equidistribution_sum(
    g: TestFunction, lo: int, hi: int
) -> EquidistributionSum:
    """Σ g(nu/p) over root fractions of primes in (lo, hi], with the
    equidistribution prediction 2·pi1((lo, hi])·∫g.

    Each prime's root pair is evaluated as one exact rational before the
    single rounding to float, so structural cancellations (mirror pairs,
    odd symmetry about 1/2) survive exactly; one fsum adds the floats.
    The window convention keeps p = 2 out whenever lo ≥ 2.  The window has
    root_stream's ceilings (roots.require_root_window), refused before any
    work.
    """
    if hi <= lo:
        raise InvalidRangeError(f"empty window: ({lo}, {hi}]")
    require_root_window(lo, hi)
    pairs = [
        float(g(Fraction(nu, p)) + g(Fraction(p - nu, p)))
        for p, nu in prime_roots(lo, hi)
    ]
    two = float(g(Fraction(1, 2))) if lo < 2 <= hi else 0.0
    prediction = float(2 * len(pairs) * g.integral())
    return EquidistributionSum(sum=math.fsum([two, *pairs]), prediction=prediction)


def centered_fraction_sum(n: int) -> float:
    """Σ (1/2 − {(n−nu)/p}) over all roots nu of primes p ≤ 2n.

    For a mirror pair the two terms combine to 1 − (r₁+r₂)/p with
    r₁ = (n−nu) mod p and r₂ = (n+nu) mod p, one exactly-rounded float
    per prime; p = 2 contributes 1/2 − ((n−1) mod 2)/2.  One fsum adds them.
    n is at most roots.MAX_N, the ceiling of the folds that walk the same
    stream to 2n.
    """
    if n < 1:
        raise InvalidRangeError("centered_fraction_sum needs n >= 1")
    _require_within(n, MAX_N)
    pairs = (
        (p - (n - nu) % p - (n + nu) % p) / p for p, nu in prime_roots(0, 2 * n)
    )
    return math.fsum(chain((0.5 - ((n - 1) % 2) * 0.5,), pairs))


@dataclass(frozen=True)
class DecayScan:
    reports: tuple[DiscrepancyReport, ...]
    amplitude: float | None  # c in D ≈ c (log n)^(−d)
    exponent: float | None  # d, positive when D decays

    @property
    def fitted(self) -> bool:
        return self.exponent is not None


def decay_scan(grid: list[int]) -> DecayScan:
    """Discrepancy along an ascending grid plus a log-log decay fit.

    Fits log D = log c − d·log log n by ordinary least squares.  With
    fewer than three grid points the fit is refused (every line through
    two points is "perfect") but the table is still produced.  A last
    point past SAMPLE_MAX_N is refused before the first is computed.
    """
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidRangeError("grid must be strictly ascending")
    if any(n < 2 for n in grid):
        raise InvalidRangeError("grid entries must be at least 2")
    _require_within(max(grid, default=0), SAMPLE_MAX_N)
    reports = tuple(discrepancy(n) for n in grid)
    if len(grid) < 3:
        return DecayScan(reports=reports, amplitude=None, exponent=None)
    xs = [math.log(math.log(r.n)) for r in reports]
    ys = [math.log(r.D) for r in reports]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    d = -sxy / sxx
    c = math.exp(my + d * mx)
    return DecayScan(reports=reports, amplitude=c, exponent=d)
