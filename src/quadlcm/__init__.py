"""Exact and asymptotic laboratory for L_n = lcm(1²+1, 2²+1, ..., n²+1).

The package computes log L_n exactly for n into the tens of millions via
prime-order corrections, evaluates the linear-term constant of its growth
law to about 28 digits, and measures the equidistribution of
the roots of x² ≡ -1 that drives the error term.

The public names below resolve on first use (PEP 562), so importing the
package, or a CLI command that needs only `orders`, loads no other
computing submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ConstantEvaluation", "ResidualReport", "character_log_sum", "compute_B",
         "mertens_log_sum", "prime_log_power_sum", "residual_scan"),
        "asymptotics",
    ),
    **dict.fromkeys(
        ("BVFunction", "DiscrepancyReport", "centered_fraction_sum", "collect_fractions",
         "decay_scan", "equidistribution_sum", "interval_discrepancy"),
        "discrepancy",
    ),
    **dict.fromkeys(
        ("DecompositionReport", "LcmEvaluation", "OrderProfile", "alpha_exact",
         "beta_exact", "count_solutions_upto", "decomposition_report",
         "log_lcm_bruteforce", "log_lcm_exact", "log_P", "order_profile",
         "square_divisor_primes"),
        "orders",
    ),
    **dict.fromkeys(
        ("PrimeCounts", "chebyshev_psi", "iter_primes", "prime_counts"),
        "primes",
    ),
    **dict.fromkeys(
        ("RootPair", "min_root", "root_stream", "roots_mod_prime_power", "sqrt_minus_one"),
        "roots",
    ),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
