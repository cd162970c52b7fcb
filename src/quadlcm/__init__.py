"""Exact and asymptotic laboratory for L_n = lcm(1²+1, 2²+1, ..., n²+1).

The package computes log L_n exactly for n into the tens of millions via
prime-order corrections, evaluates the linear-term constant of its growth
law to about seventeen digits, and measures the equidistribution of
the roots of x² ≡ -1 that drives the error term.
"""

__version__ = "0.1.0"

from .asymptotics import (
    ConstantEvaluation,
    ResidualReport,
    character_log_sum,
    compute_B,
    mertens_log_sum,
    prime_log_power_sum,
    residual_scan,
)
# the discrepancy submodule keeps its name at package level, so its
# headline operation discrepancy() is re-exported as interval_discrepancy
from .discrepancy import (
    BVFunction,
    DiscrepancyReport,
    centered_fraction_sum,
    collect_fractions,
    decay_scan,
    equidistribution_sum,
)
from .discrepancy import discrepancy as interval_discrepancy
from .orders import (
    DecompositionReport,
    LcmEvaluation,
    OrderProfile,
    alpha_exact,
    beta_exact,
    count_solutions_upto,
    decomposition_report,
    log_lcm_bruteforce,
    log_lcm_exact,
    log_P,
    order_profile,
    square_divisor_primes,
)
from .primes import PrimeCounts, chebyshev_psi, iter_primes, prime_counts, sieve_range
from .roots import RootPair, min_root, root_stream, roots_mod_prime_power, sqrt_minus_one

__all__ = [
    "__version__",
    "BVFunction",
    "ConstantEvaluation",
    "DecompositionReport",
    "DiscrepancyReport",
    "LcmEvaluation",
    "OrderProfile",
    "PrimeCounts",
    "ResidualReport",
    "RootPair",
    "alpha_exact",
    "beta_exact",
    "centered_fraction_sum",
    "character_log_sum",
    "chebyshev_psi",
    "collect_fractions",
    "compute_B",
    "count_solutions_upto",
    "decay_scan",
    "decomposition_report",
    "equidistribution_sum",
    "interval_discrepancy",
    "iter_primes",
    "log_P",
    "log_lcm_bruteforce",
    "log_lcm_exact",
    "mertens_log_sum",
    "min_root",
    "order_profile",
    "prime_counts",
    "prime_log_power_sum",
    "residual_scan",
    "root_stream",
    "roots_mod_prime_power",
    "sieve_range",
    "sqrt_minus_one",
    "square_divisor_primes",
]
