"""Command-line front end: one `quadlcm` entry point per experiment.

Conventions shared by every subcommand:

* table-producing commands emit CSV (12 significant digits, header row);
  without --out the CSV goes to stdout, with --out it is written to the
  given path and a sibling <path>.manifest.json records the config echo,
  wall times and the sha256 of the data file,
* single-value commands print key=value lines and write a JSON document
  when --out is given,
* exit codes: 2 for invalid flags or parameter validation, 3 when the
  exact-integer oracle cap is exceeded, 4 on modulus overflow.

Worker counts resolve flag first, then the QUADLCM_WORKERS environment
variable, then 1.  Reruns with identical config produce byte-identical
data files; only manifest wall times vary.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict

from . import __version__, asymptotics, discrepancy, orders, primes
from .errors import OracleCapError, QuadlcmError, RangeOverflowError
from .reports import RunManifest, format_value, render_csv, render_json, write_report
from .roots import root_stream
from .summation import GAMMA_DD
from .verify import run_verify


class UsageError(QuadlcmError, ValueError):
    """Bad flag combination or parameter value; maps to exit 2."""


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
    out = []
    v = start
    while v <= stop:
        out.append(v)
        v *= factor
    return out


def _resolve_workers(flag_value: int | None) -> int:
    if flag_value is None:
        env = os.environ.get("QUADLCM_WORKERS", "").strip()
        if not env:
            return 1
        try:
            flag_value = int(env)
        except ValueError:
            raise UsageError(f"QUADLCM_WORKERS must be an integer, got {env!r}") from None
    if flag_value < 1:
        raise UsageError("worker count must be >= 1")
    return flag_value


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit_table(args, command: str, header, rows, wall: dict) -> None:
    text = render_csv(header, rows)
    if args.out:
        t0 = time.perf_counter()
        digest = write_report(args.out, text)
        wall = dict(wall)
        wall["write"] = time.perf_counter() - t0
        manifest = RunManifest(
            command=command,
            version=__version__,
            config=_config_echo(args),
            wall_seconds=wall,
            files={os.path.basename(args.out): digest},
        )
        manifest.write_next_to(args.out)
        print(f"wrote {args.out} sha256={digest}")
    else:
        sys.stdout.write(text)


def _emit_json(args, command: str, obj, wall: dict) -> None:
    if not args.out:
        return
    text = render_json(obj)
    t0 = time.perf_counter()
    digest = write_report(args.out, text)
    wall = dict(wall)
    wall["write"] = time.perf_counter() - t0
    manifest = RunManifest(
        command=command,
        version=__version__,
        config=_config_echo(args),
        wall_seconds=wall,
        files={os.path.basename(args.out): digest},
    )
    manifest.write_next_to(args.out)
    print(f"wrote {args.out} sha256={digest}")


def cmd_psi(args) -> int:
    t0 = time.perf_counter()
    value = primes.chebyshev_psi(args.n)
    wall = {"compute": time.perf_counter() - t0}
    print(f"n={args.n} psi={format_value(value)} ratio={format_value(value / args.n)}")
    _emit_json(args, "psi", {"n": args.n, "psi": value, "ratio": value / args.n}, wall)
    return 0


def cmd_counts(args) -> int:
    t0 = time.perf_counter()
    pc = primes.prime_counts(args.n)
    wall = {"compute": time.perf_counter() - t0}
    print(f"n={pc.n} pi={pc.pi} pi1={pc.pi1}")
    _emit_json(args, "counts", asdict(pc), wall)
    return 0


def cmd_roots(args) -> int:
    if args.hi < args.lo:
        raise UsageError("roots needs hi >= lo")
    t0 = time.perf_counter()
    rows = [
        (item.p, item.nu, item.fraction.numerator, item.fraction.denominator)
        for item in root_stream(args.lo, args.hi)
    ]
    wall = {"compute": time.perf_counter() - t0}
    _emit_table(args, "roots", ("p", "nu", "frac_num", "frac_den"), rows, wall)
    return 0


def cmd_orders(args) -> int:
    t0 = time.perf_counter()
    prof = orders.order_profile(args.p, args.n)
    wall = {"compute": time.perf_counter() - t0}
    print(
        f"p={prof.p} n={prof.n} alpha={prof.alpha} beta={prof.beta} "
        f"alpha_star={prof.alpha_star} beta_star={prof.beta_star}"
    )
    _emit_json(args, "orders", asdict(prof), wall)
    return 0


def cmd_lcm(args) -> int:
    workers = args.workers = _resolve_workers(args.workers)
    t0 = time.perf_counter()
    ev = orders.log_lcm_exact(args.n, workers=workers)
    wall = {"compute": time.perf_counter() - t0}
    print(f"n={ev.n} logL={format_value(ev.log_L)}")
    _emit_json(args, "lcm", asdict(ev), wall)
    return 0


def cmd_brute(args) -> int:
    t0 = time.perf_counter()
    value = orders.log_lcm_bruteforce(args.n, cap=args.cap)
    wall = {"compute": time.perf_counter() - t0}
    print(f"n={args.n} logL={format_value(value)}")
    _emit_json(args, "brute", {"n": args.n, "log_L": value, "cap": args.cap}, wall)
    return 0


def cmd_badprimes(args) -> int:
    t0 = time.perf_counter()
    found = orders.square_divisor_primes(args.n)
    wall = {"compute": time.perf_counter() - t0}
    bound = 8.0 * args.n ** (2.0 / 3.0)
    print(f"n={args.n} count={len(found)} bound={format_value(bound)}")
    _emit_table(args, "badprimes", ("p",), [(p,) for p in found], wall)
    return 0


def cmd_decomp(args) -> int:
    workers = args.workers = _resolve_workers(args.workers)
    t0 = time.perf_counter()
    rep = orders.decomposition_report(args.n, workers=workers)
    wall = {"compute": time.perf_counter() - t0}
    print(
        f"n={rep.n} small={format_value(rep.small_sum)} "
        f"medium_high={format_value(rep.medium_high_sum)} "
        f"beta_star={format_value(rep.beta_star_sum)} "
        f"alpha_star={format_value(rep.alpha_star_sum)} "
        f"two={format_value(rep.two_correction)} "
        f"identity_residue={rep.identity_residue} bad_primes={len(rep.bad_primes)}"
    )
    obj = asdict(rep)
    obj["bad_primes"] = list(rep.bad_primes)
    _emit_json(args, "decomp", obj, wall)
    return 0


def cmd_discrepancy(args) -> int:
    grid = parse_grid(args.grid) if args.grid else [args.n]
    if grid == [None]:
        raise UsageError("discrepancy needs --n or --grid")
    t0 = time.perf_counter()
    rows = []
    for n in grid:
        rep = discrepancy.discrepancy(n)
        rows.append(
            (
                rep.n,
                rep.D,
                rep.witness.u.numerator,
                rep.witness.u.denominator,
                rep.witness.v.numerator,
                rep.witness.v.denominator,
                rep.sample_size,
            )
        )
    wall = {"compute": time.perf_counter() - t0}
    header = (
        "n",
        "D",
        "witness_u_num",
        "witness_u_den",
        "witness_v_num",
        "witness_v_den",
        "sample_size",
    )
    _emit_table(args, "discrepancy", header, rows, wall)
    return 0


_TEST_FUNCTIONS = {
    "one": discrepancy.constant_one,
    "t": discrepancy.identity_map,
    "t2": discrepancy.square_map,
    "tent": discrepancy.tent_map,
}


def cmd_equisum(args) -> int:
    if args.hi < args.lo:
        raise UsageError("equisum needs hi >= lo")
    g = _TEST_FUNCTIONS[args.g]()
    t0 = time.perf_counter()
    res = discrepancy.equidistribution_sum(g, args.lo, args.hi)
    wall = {"compute": time.perf_counter() - t0}
    print(
        f"g={args.g} lo={args.lo} hi={args.hi} "
        f"sum={format_value(res.sum)} prediction={format_value(res.prediction)}"
    )
    obj = {
        "g": args.g,
        "lo": args.lo,
        "hi": args.hi,
        "sum": res.sum,
        "prediction": res.prediction,
    }
    _emit_json(args, "equisum", obj, wall)
    return 0


def cmd_centered(args) -> int:
    grid = parse_grid(args.grid)
    t0 = time.perf_counter()
    rows = []
    for n in grid:
        value = discrepancy.centered_fraction_sum(n)
        normalized = abs(value) * math.log(n) ** 1.4 / n if n > 1 else 0.0
        rows.append((n, value, normalized))
    wall = {"compute": time.perf_counter() - t0}
    _emit_table(args, "centered", ("n", "centered_sum", "normalized"), rows, wall)
    return 0


def cmd_mertens(args) -> int:
    grid = parse_grid(args.grid)
    t0 = time.perf_counter()
    rows = []
    for x in grid:
        value = asymptotics.mertens_log_sum(x)
        reference = math.log(x / 2.0) - GAMMA_DD[0]
        rows.append((x, value, reference, value - reference))
    wall = {"compute": time.perf_counter() - t0}
    _emit_table(args, "mertens", ("x", "sum", "reference", "deviation"), rows, wall)
    return 0


def cmd_charsum(args) -> int:
    grid = parse_grid(args.grid)
    t0 = time.perf_counter()
    limit = asymptotics.compute_B("accelerated").s_value
    rows = []
    for x in grid:
        value = asymptotics.character_log_sum(x)
        rows.append((x, value, limit, value - limit))
    wall = {"compute": time.perf_counter() - t0}
    _emit_table(args, "charsum", ("x", "sum", "limit", "deviation"), rows, wall)
    return 0


def cmd_constant_b(args) -> int:
    t0 = time.perf_counter()
    ev = asymptotics.compute_B(args.mode, p_max=args.p_max, depth=args.depth)
    wall = {"compute": time.perf_counter() - t0}
    print(
        f"mode={ev.mode} B={format_value(ev.value)} "
        f"tail_bound={format_value(ev.tail_bound)}"
    )
    _emit_json(args, "constant-b", asdict(ev), wall)
    return 0


def cmd_residuals(args) -> int:
    if not 0.0 < args.theta < 4.0 / 9.0:
        raise UsageError("theta must lie strictly between 0 and 4/9")
    workers = args.workers = _resolve_workers(args.workers)
    grid = parse_grid(args.grid)
    t0 = time.perf_counter()
    reps = asymptotics.residual_scan(grid, theta=args.theta, workers=workers)
    wall = {"compute": time.perf_counter() - t0}
    rows = [(r.n, r.log_L, r.main, r.r, r.normalized) for r in reps]
    _emit_table(args, "residuals", ("n", "log_L", "main", "r", "r_normalized"), rows, wall)
    return 0


def cmd_verify(args) -> int:
    results = run_verify(args.level)
    for r in results:
        print(("PASS" if r.ok else "FAIL"), r.name, "::", r.detail)
    failures = [r for r in results if not r.ok]
    if failures:
        print(f"first failing property: {failures[0].name}", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed at level {args.level}")
    return 0


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write the report to this path")


def _add_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: QUADLCM_WORKERS or 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadlcm",
        description="Exact and asymptotic laboratory for lcm(1²+1, ..., n²+1).",
    )
    parser.add_argument("--version", action="version", version=f"quadlcm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="Chebyshev psi(n) = log lcm(1..n)")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("counts", help="prime counts pi(n) and pi1(n)")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("roots", help="roots of x²+1 over primes in (lo, hi]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("orders", help="alpha/beta order profile of one prime")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_orders)

    p = sub.add_parser("lcm", help="exact log L_n via the prime-order correction")
    p.add_argument("--n", type=int, required=True)
    _add_workers(p)
    _add_out(p)
    p.set_defaults(func=cmd_lcm)

    p = sub.add_parser("brute", help="exact-integer lcm oracle (capped)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=orders.ORACLE_CAP_DEFAULT)
    _add_out(p)
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("badprimes", help="medium primes whose square divides some i²+1")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_badprimes)

    p = sub.add_parser("decomp", help="correction pieces split at the n^(2/3) boundary")
    p.add_argument("--n", type=int, required=True)
    _add_workers(p)
    _add_out(p)
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("discrepancy", help="exact star discrepancy of root fractions")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid", default=None, help="start:stop:factor")
    _add_out(p)
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("equisum", help="weighted sum of a test function over root fractions")
    p.add_argument("--g", choices=sorted(_TEST_FUNCTIONS), required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_equisum)

    p = sub.add_parser("centered", help="centered fractional sums on a grid")
    p.add_argument("--grid", required=True, help="start:stop:factor")
    _add_out(p)
    p.set_defaults(func=cmd_centered)

    p = sub.add_parser("mertens", help="Mertens-type log sums on a grid")
    p.add_argument("--grid", required=True, help="start:stop:factor")
    _add_out(p)
    p.set_defaults(func=cmd_mertens)

    p = sub.add_parser("charsum", help="character-weighted log sums on a grid")
    p.add_argument("--grid", required=True, help="start:stop:factor")
    _add_out(p)
    p.set_defaults(func=cmd_charsum)

    p = sub.add_parser("constant-b", help="the linear-term constant B")
    p.add_argument("--mode", choices=("accelerated", "naive"), default="accelerated")
    p.add_argument("--p-max", dest="p_max", type=int, default=10**6)
    p.add_argument("--depth", type=int, default=48)
    _add_out(p)
    p.set_defaults(func=cmd_constant_b)

    p = sub.add_parser("residuals", help="log L_n minus the n log n + B n main term")
    p.add_argument("--grid", required=True, help="start:stop:factor")
    p.add_argument("--theta", type=float, default=0.44)
    _add_workers(p)
    _add_out(p)
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("verify", help="run the built-in invariant suites")
    p.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
