"""Shared exception types.

The CLI maps these onto process exit codes, so library code should raise
these rather than bare ValueError wherever a contract is violated.
"""


class QuadlcmError(Exception):
    """Base class for package-specific failures."""


class InvalidRangeError(QuadlcmError, ValueError):
    """A half-open range (lo, hi] was requested with hi < lo or lo < 0."""


class NotOneModFourError(QuadlcmError, ValueError):
    """x^2 = -1 has no root for this modulus.

    Raised by sqrt_minus_one and roots_mod_prime_power for p = 2 at every
    exponent a >= 1 (its single root 1 is no pair) and for any p = 3 mod 4,
    where -1 is a quadratic non-residue.  min_root(2, a) instead returns 1
    for a = 1 and raises InvalidRangeError for a >= 2, since i^2+1 is never
    divisible by 4.
    """


class RangeOverflowError(QuadlcmError, OverflowError):
    """A requested prime power exceeds the supported integer range (2^63-1)."""

    exit_code = 4


class OracleCapError(QuadlcmError, ValueError):
    """A brute-force oracle was asked to run beyond its configured cap."""

    exit_code = 3


class EmptySampleError(QuadlcmError, ValueError):
    """No root fractions exist at or below the requested bound."""


class DivergentSeriesError(QuadlcmError, ValueError):
    """A prime log-power series was requested at an argument where it diverges."""
