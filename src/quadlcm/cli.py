"""Command-line front end: one `quadlcm` entry point per experiment.

Conventions shared by every subcommand:

* table-producing commands emit CSV (12 significant digits, header row);
  without --out the CSV goes to stdout, with --out it is written to the
  given path and a sibling <path>.manifest.json records the config echo,
  wall times and the sha256 of the data file,
* single-value commands print key=value lines and write a JSON document
  when --out is given,
* exit codes: 2 for invalid flags, parameter validation or an unwritable
  --out, 3 when the exact-integer oracle cap is exceeded, 4 on modulus
  overflow,
* a work ceiling stated in --help refuses an oversize input before any
  work starts (exit 2): --p-max of constant-b, the n of psi and counts
  and the last mertens and charsum grid point (primes.PSI_MAX_N), the n
  of lcm, decomp, badprimes and the last residuals and centered grid
  point (roots.MAX_N), the n or last grid point of discrepancy
  (discrepancy.SAMPLE_MAX_N), and the window of roots and equisum,
* verify prints one PASS/FAIL line per check, or with --json one JSON
  object, and exits 1 when a check fails.

Each data command is one row of COMMANDS: it names the one submodule its
handler computes with, and the handler only computes and returns (key=value
line or None, Table or JSON object); run_command imports that submodule and
does the timing, printing and writing for all of them.
A run imports only its own command's submodule and what that imports.

The worker count is the --workers flag alone (default 1); `orders` refuses
a count below 1 (exit 2), a pool never starts more processes than there
are CPUs or blocks, and no worker count changes a result.  Reruns with
identical config produce byte-identical data files; only manifest wall
times vary.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict
from importlib import import_module
from typing import Callable, NamedTuple

from . import __version__
from .errors import OracleCapError, QuadlcmError, RangeOverflowError
from .primes import _require_within
from .reports import RunManifest, format_value, render_csv, render_json, write_report
from .summation import GAMMA, geometric


class UsageError(QuadlcmError, ValueError):
    """Bad flag combination or parameter value; maps to exit 2."""


class Table(NamedTuple):
    """A CSV report: one header row, then the data rows."""

    header: tuple
    rows: list


class Command(NamedTuple):
    """One data command.  run_command imports the quadlcm submodule named
    by `module` and calls handler(that submodule, args)."""

    name: str
    module: str
    handler: Callable
    help: str
    flags: list


def parse_grid(spec: str) -> list[int]:
    """Geometric grid start:stop:factor, e.g. 1000:10000000:10."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:factor, got {spec!r}")
    try:
        start, stop, factor = (int(x) for x in parts)
    except ValueError:
        raise UsageError(f"grid parts must be integers, got {spec!r}") from None
    if start < 1 or stop < start or factor < 2:
        raise UsageError(
            "grid needs start >= 1, stop >= start, factor >= 2"
        )
    return geometric(start, stop, factor)


def run_command(args: argparse.Namespace) -> int:
    """Time the handler as the compute phase, print its line, emit its report.

    Without --out a Table goes to stdout as CSV and a JSON object is
    dropped; with --out either is written (the write phase) beside its
    manifest.
    """
    command = args.func
    # imported before the clock starts, so the compute phase is compute only
    module = import_module(f".{command.module}", __package__)
    t0 = time.perf_counter()
    line, report = command.handler(module, args)
    wall = {"compute": time.perf_counter() - t0}
    if line is not None:
        print(line)
    is_table = isinstance(report, Table)
    if not args.out:
        if is_table:
            sys.stdout.write(render_csv(report.header, report.rows))
        return 0
    text = render_csv(report.header, report.rows) if is_table else render_json(report)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    try:
        t0 = time.perf_counter()
        digest = write_report(args.out, text)
        wall["write"] = time.perf_counter() - t0
        manifest = RunManifest(
            command=args.command,
            version=__version__,
            config=config,
            wall_seconds=wall,
            files={os.path.basename(args.out): digest},
        )
        manifest.write_next_to(args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(f"wrote {args.out} sha256={digest}")
    return 0


def cmd_psi(primes, args):
    value = primes.chebyshev_psi(args.n)
    ratio = value / args.n
    line = f"n={args.n} psi={format_value(value)} ratio={format_value(ratio)}"
    return line, {"n": args.n, "psi": value, "ratio": ratio}


def cmd_counts(primes, args):
    pc = primes.prime_counts(args.n)
    return f"n={pc.n} pi={pc.pi} pi1={pc.pi1}", asdict(pc)


def cmd_roots(roots, args):
    rows = [
        (item.p, item.nu, item.fraction.numerator, item.fraction.denominator)
        for item in roots.root_stream(args.lo, args.hi)
    ]
    return None, Table(("p", "nu", "frac_num", "frac_den"), rows)


def cmd_orders(orders, args):
    prof = orders.order_profile(args.p, args.n)
    line = (
        f"p={prof.p} n={prof.n} alpha={prof.alpha} beta={prof.beta} "
        f"alpha_star={prof.alpha_star} beta_star={prof.beta_star}"
    )
    return line, asdict(prof)


def cmd_lcm(orders, args):
    ev = orders.log_lcm_exact(args.n, workers=args.workers)
    return f"n={ev.n} logL={format_value(ev.log_L)}", asdict(ev)


def cmd_brute(orders, args):
    if args.cap is None:
        args.cap = orders.ORACLE_CAP_DEFAULT
    value = orders.log_lcm_bruteforce(args.n, cap=args.cap)
    line = f"n={args.n} logL={format_value(value)}"
    return line, {"n": args.n, "log_L": value, "cap": args.cap}


def cmd_badprimes(orders, args):
    found = orders.square_divisor_primes(args.n)
    bound = 8.0 * args.n ** (2.0 / 3.0)
    line = f"n={args.n} count={len(found)} bound={format_value(bound)}"
    return line, Table(("p",), [(p,) for p in found])


def cmd_decomp(orders, args):
    rep = orders.decomposition_report(args.n, workers=args.workers)
    line = (
        f"n={rep.n} small={format_value(rep.small_sum)} "
        f"medium_high={format_value(rep.medium_high_sum)} "
        f"beta_star={format_value(rep.beta_star_sum)} "
        f"alpha_star={format_value(rep.alpha_star_sum)} "
        f"two={format_value(rep.two_correction)} "
        f"identity_residue={rep.identity_residue} bad_primes={len(rep.bad_primes)}"
    )
    return line, asdict(rep)


def cmd_discrepancy(discrepancy, args):
    if args.n is None and args.grid is None:
        raise UsageError("discrepancy needs --n or --grid")
    if args.n is not None and args.grid is not None:
        raise UsageError("discrepancy takes --n or --grid, not both")
    grid = [args.n] if args.grid is None else parse_grid(args.grid)
    _require_within(grid[-1], discrepancy.SAMPLE_MAX_N)
    rows = []
    for n in grid:
        rep = discrepancy.discrepancy(n)
        u, v = rep.witness.u, rep.witness.v
        rows.append((rep.n, rep.D, u.numerator, u.denominator, v.numerator, v.denominator,
                     rep.sample_size))
    header = ("n", "D", "witness_u_num", "witness_u_den", "witness_v_num", "witness_v_den",
              "sample_size")
    return None, Table(header, rows)


# --g choice -> the discrepancy function that builds the test function
_TEST_FUNCTIONS = {
    "one": "constant_one",
    "t": "identity_map",
    "t2": "square_map",
    "tent": "tent_map",
}


def cmd_equisum(discrepancy, args):
    g = getattr(discrepancy, _TEST_FUNCTIONS[args.g])()
    res = discrepancy.equidistribution_sum(g, args.lo, args.hi)
    line = (
        f"g={args.g} lo={args.lo} hi={args.hi} "
        f"sum={format_value(res.sum)} prediction={format_value(res.prediction)}"
    )
    return line, {"g": args.g, "lo": args.lo, "hi": args.hi, **res._asdict()}


def cmd_centered(discrepancy, args):
    grid = parse_grid(args.grid)
    _require_within(grid[-1], discrepancy.MAX_N)
    rows = []
    for n in grid:
        value = discrepancy.centered_fraction_sum(n)
        normalized = abs(value) * math.log(n) ** 1.4 / n if n > 1 else 0.0
        rows.append((n, value, normalized))
    return None, Table(("n", "centered_sum", "normalized"), rows)


def cmd_mertens(asymptotics, args):
    grid = parse_grid(args.grid)
    _require_within(grid[-1], asymptotics.PSI_MAX_N, "x")
    rows = []
    for x in grid:
        value = asymptotics.mertens_log_sum(x)
        reference = math.log(x / 2.0) - float(GAMMA)
        rows.append((x, value, reference, value - reference))
    return None, Table(("x", "sum", "reference", "deviation"), rows)


def cmd_charsum(asymptotics, args):
    grid = parse_grid(args.grid)
    _require_within(grid[-1], asymptotics.PSI_MAX_N, "x")
    limit = asymptotics.compute_B("accelerated").s_value
    rows = []
    for x in grid:
        value = asymptotics.character_log_sum(x)
        rows.append((x, value, limit, value - limit))
    return None, Table(("x", "sum", "limit", "deviation"), rows)


def cmd_constant_b(asymptotics, args):
    ev = asymptotics.compute_B(args.mode, p_max=args.p_max)
    line = (
        f"mode={ev.mode} B={format_value(ev.value)} "
        f"tail_bound={format_value(ev.tail_bound)}"
    )
    return line, asdict(ev)


def cmd_residuals(asymptotics, args):
    grid = parse_grid(args.grid)
    reps = asymptotics.residual_scan(grid, theta=args.theta, workers=args.workers)
    rows = [(r.n, r.log_L, r.main, r.r, r.normalized) for r in reps]
    return None, Table(("n", "log_L", "main", "r", "r_normalized"), rows)


def cmd_verify(args) -> int:
    from .verify import run_verify

    results = run_verify(args.level)
    failures = [r for r in results if not r.ok]
    if args.json:
        checks = [asdict(r) for r in results]
        sys.stdout.write(render_json({"level": args.level, "checks": checks}))
    else:
        for r in results:
            print(("PASS" if r.ok else "FAIL"), r.name, "::", r.detail, f"({r.seconds:.2f} s)")
    if failures:
        print(f"first failing property: {failures[0].name}", file=sys.stderr)
        return 1
    if not args.json:
        print(f"all {len(results)} checks passed at level {args.level}")
    return 0


def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


_N = _flag("--n", type=int, required=True)
# the work ceiling roots.MAX_N of the (p, ν) folds
_N_FOLD = _flag("--n", type=int, required=True,
                help="at most 1000000000, about 0.15 µs per unit of n serially")
# the work ceilings primes.PSI_MAX_N and primes.COUNTS_MAX_N
_N_PSI = _flag("--n", type=int, required=True,
               help="at most 10000000000, about 20 ns per unit of n")
_N_COUNTS = _flag("--n", type=int, required=True,
                  help="at most 50000000000, about 4 ns per unit of n")
# the work ceilings primes.PSI_MAX_N of mertens and charsum and roots.MAX_N
# of centered
_GRID_PRIMES = _flag("--grid", required=True,
                     help="start:stop:factor, stop at most 10000000000, "
                          "about 30 ns per unit of stop")
_GRID_CENTERED = _flag("--grid", required=True,
                       help="start:stop:factor, stop at most 1000000000, "
                            "about 0.1 µs per unit of stop")
# the work ceiling discrepancy.SAMPLE_MAX_N of --n and the last --grid point
_SAMPLE_CEILING = "at most 10000000, about 0.6 µs and 18 bytes per unit of n"
_WORKERS = _flag("--workers", type=int, default=1,
                 help="worker processes, capped at the CPU count (default: 1)")
# the work ceilings roots.ROOTS_MAX_HI and roots.ROOTS_MAX_WIDTH of roots
# and equisum
_WINDOW = [_flag("--lo", type=int, required=True),
           _flag("--hi", type=int, required=True,
                 help="at most 1000000000000 and at most --lo + 4000000, "
                      "about 5 s and 100 MB at either ceiling")]

# build_parser adds --out to every entry.
COMMANDS = [
    Command("psi", "primes", cmd_psi, "Chebyshev psi(n) = log lcm(1..n)", [_N_PSI]),
    Command("counts", "primes", cmd_counts, "prime counts pi(n) and pi1(n)", [_N_COUNTS]),
    Command("roots", "roots", cmd_roots, "roots of x²+1 over primes in (lo, hi]",
            _WINDOW),
    Command("orders", "orders", cmd_orders, "alpha/beta order profile of one prime",
            [_flag("--p", type=int, required=True), _N]),
    Command("lcm", "orders", cmd_lcm, "exact log L_n via the prime-order correction",
            [_N_FOLD, _WORKERS]),
    Command("brute", "orders", cmd_brute, "exact-integer lcm oracle (capped)",
            [_N, _flag("--cap", type=int, default=None,
                       help="largest n the oracle takes (default: orders.ORACLE_CAP_DEFAULT)")]),
    Command("badprimes", "orders", cmd_badprimes,
            "medium primes whose square divides some i²+1", [_N_FOLD]),
    Command("decomp", "orders", cmd_decomp, "correction pieces split at the n^(2/3) boundary",
            [_N_FOLD, _WORKERS]),
    Command("discrepancy", "discrepancy", cmd_discrepancy,
            "exact star discrepancy of root fractions",
            [_flag("--n", type=int, default=None, help=_SAMPLE_CEILING),
             _flag("--grid", default=None,
                   help=f"start:stop:factor, stop {_SAMPLE_CEILING}")]),
    Command("equisum", "discrepancy", cmd_equisum,
            "weighted sum of a test function over root fractions",
            [_flag("--g", choices=sorted(_TEST_FUNCTIONS), required=True), *_WINDOW]),
    Command("centered", "discrepancy", cmd_centered, "centered fractional sums on a grid",
            [_GRID_CENTERED]),
    Command("mertens", "asymptotics", cmd_mertens, "Mertens-type log sums on a grid",
            [_GRID_PRIMES]),
    Command("charsum", "asymptotics", cmd_charsum, "character-weighted log sums on a grid",
            [_GRID_PRIMES]),
    Command("constant-b", "asymptotics", cmd_constant_b, "the linear-term constant B",
            [_flag("--mode", choices=("accelerated", "naive"), default="accelerated"),
             _flag("--p-max", dest="p_max", type=int, default=10**6,
                   help="naive mode: 1000 to 100000000, about 0.06 µs per unit")]),
    Command("residuals", "asymptotics", cmd_residuals,
            "log L_n minus the n log n + B n main term",
            [_flag("--grid", required=True,
                   help="start:stop:factor, stop at most 1000000000 (as lcm --n)"),
             _flag("--theta", type=float, default=0.44), _WORKERS]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadlcm",
        description="Exact and asymptotic laboratory for lcm(1²+1, ..., n²+1).",
    )
    parser.add_argument("--version", action="version", version=f"quadlcm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for names, kwargs in command.flags:
            p.add_argument(*names, **kwargs)
        p.add_argument("--out", default=None, help="write the report to this path")
        p.set_defaults(func=command)

    p = sub.add_parser("verify", help="run the built-in invariant suites")
    p.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object: the level and each check's "
                        "name, ok, detail and seconds")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return cmd_verify(args) if args.command == "verify" else run_command(args)
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RangeOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (QuadlcmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
