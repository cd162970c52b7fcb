"""Equidistribution of the root fractions nu/p.

The sample at bound n holds every fraction nu/p with nu² ≡ −1 mod p and
p ≤ n: one fraction (1/2) for p = 2, an exact mirror pair for p ≡ 1 mod 4,
nothing for p ≡ 3 mod 4.  Counting is normalized by pi(n) over all primes,
so the sample "mass" tops out near 2·pi1(n)/pi(n) ≈ 1.

Everything that decides an ordering or an interval membership runs on
exact rationals; floats appear only in final report fields.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Protocol

from .errors import EmptySampleError, InvalidRangeError
from .primes import count_primes
from .roots import prime_roots


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
    """All root fractions for primes up to n, sorted, with pi(n)."""
    if n < 2:
        raise EmptySampleError(f"no primes up to {n}, sample undefined")
    pts = [Fraction(1, 2)]
    for p, nu in prime_roots(0, n):
        pts.append(Fraction(nu, p))
        pts.append(Fraction(p - nu, p))
    pts.sort()
    return FractionSample(n=n, items=tuple(pts), pi_n=count_primes(0, n))


def discrepancy_of_sample(sample: FractionSample) -> DiscrepancyReport:
    """Exact sup over intervals (u, v] of |length − count/pi(n)|.

    On a finite sample the supremum is attained with u and v at sample
    points (or interval ends), possibly as left limits.  Two linear scans
    cover both senses of the deviation:

    * point-heavy windows [x_i, x_j]: u → x_i from below, v = x_j, giving
      (j−i+1)/P − (x_j − x_i); maximize by a prefix max of x_i − i/P;
    * point-light windows (x_i, x_{j+1}): u = x_i, v → x_{j+1} from below
      (with sentinels 0 and 1), giving (x_{j+1} − x_i) − (j−i)/P;
      maximize by a prefix max of i/P − x_i.

    A window starting at the 0 sentinel in the first scan is always beaten
    by starting at x_1, so the sentinel is only needed in the second.
    """
    pts = sample.items
    P = sample.pi_n
    N = len(pts)
    xs: list[Fraction] = [Fraction(0)] + list(pts) + [Fraction(1)]
    best: Fraction | None = None
    best_witness: Witness | None = None

    run = xs[1] - Fraction(1, P)
    run_i = 1
    for j in range(1, N + 1):
        here = xs[j] - Fraction(j, P)
        if here > run:
            run = here
            run_i = j
        cand = Fraction(j + 1, P) - xs[j] + run
        if best is None or cand > best:
            best = cand
            best_witness = Witness(
                u=xs[run_i], v=xs[j], u_from_left=True, v_from_left=False
            )

    run = Fraction(0)
    run_i = 0
    for j in range(0, N + 1):
        here = Fraction(j, P) - xs[j]
        if here > run:
            run = here
            run_i = j
        cand = xs[j + 1] - Fraction(j, P) + run
        if cand > best:
            best = cand
            best_witness = Witness(
                u=xs[run_i], v=xs[j + 1], u_from_left=False, v_from_left=True
            )

    assert best is not None and best_witness is not None
    return DiscrepancyReport(
        n=sample.n,
        D=float(best),
        D_exact=best,
        witness=best_witness,
        sample_size=N,
    )


def discrepancy(n: int) -> DiscrepancyReport:
    return discrepancy_of_sample(collect_fractions(n))


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
        xs = [x for x, _ in self.breakpoints]
        k = bisect_right(xs, t) - 1
        if k == len(xs) - 1:
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
    The window convention keeps p = 2 out whenever lo ≥ 2.
    """
    if hi <= lo:
        raise InvalidRangeError(f"empty window: ({lo}, {hi}]")
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
    """
    if n < 1:
        raise InvalidRangeError("centered_fraction_sum needs n >= 1")
    pairs = (
        (p - (n - nu) % p - (n + nu) % p) / p for p, nu in prime_roots(0, 2 * n)
    )
    return math.fsum(chain((0.5 - ((n - 1) % 2) * 0.5,), pairs))


@dataclass(frozen=True)
class DecayScan:
    reports: tuple[DiscrepancyReport, ...]
    amplitude: float | None  # c in D ≈ c (log n)^(−d)
    exponent: float | None  # d, positive when D decays
    fit_rms: float | None

    @property
    def fitted(self) -> bool:
        return self.exponent is not None


def decay_scan(grid: list[int]) -> DecayScan:
    """Discrepancy along an ascending grid plus a log-log decay fit.

    Fits log D = log c − d·log log n by ordinary least squares.  With
    fewer than three grid points the fit is refused (every line through
    two points is "perfect") but the table is still produced.
    """
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidRangeError("grid must be strictly ascending")
    if any(n < 2 for n in grid):
        raise InvalidRangeError("grid entries must be at least 2")
    reports = tuple(discrepancy(n) for n in grid)
    if len(grid) < 3:
        return DecayScan(reports=reports, amplitude=None, exponent=None, fit_rms=None)
    xs = [math.log(math.log(r.n)) for r in reports]
    ys = [math.log(r.D) for r in reports]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    d = -slope
    c = math.exp(my + d * mx)
    rms = math.sqrt(
        math.fsum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
        / len(xs)
    )
    return DecayScan(reports=reports, amplitude=c, exponent=d, fit_rms=rms)
