"""One traced layer call, run in a fresh interpreter by `run.py --trace 1`.

    PYTHONPATH=src python3 perfbench/probe.py '{"probe": "sieve", "n": 1000}'

The probe imports quadlcm cold, wraps the module-level functions that mark
layer boundaries in span recorders, makes one call and prints one JSON line
{"spans": [...], "values": {...}} on stdout.  Span times come from
perf_counter_ns, which on Linux is CLOCK_MONOTONIC and so comparable across
the processes of one traced run.  Spans wrap coarse functions only (a few
hundred calls at most per probe), so they cost no measurable time.  The one
fine-grained timer, around each root lift in the serial lcm probe, adds
about 0.4 us to each of ~1e6 calls at n = 1e7: some 3% of that run, which
orders.lcm_serial_s and orders.pool_speedup include.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from quadlcm import asymptotics, discrepancy, orders
from quadlcm.primes import iter_primes
from quadlcm.reports import format_value, render_csv
from quadlcm.roots import sqrt_minus_one


class Tracer:
    """Spans (id, name, parent, start_ns, end_ns) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span around every call of module.attr made through the
        module's globals (the way the layers call each other)."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(module, attr, traced)


def probe_sieve(tr: Tracer, spec: dict) -> dict:
    with tr.span("primes.sieve"):
        count = sum(1 for _ in iter_primes(0, 2 * spec["n"]))
    return {"count": count}


def probe_roots(tr: Tracer, spec: dict) -> dict:
    ps = [p for p in iter_primes(0, 2 * spec["n"]) if p % 4 == 1]
    with tr.span("roots.sqrt"):
        for p in ps:
            sqrt_minus_one(p)
    return {"count": len(ps)}


def probe_lcm(tr: Tracer, spec: dict) -> dict:
    tr.wrap(orders, "log_P", "orders.log_P")
    tr.wrap(orders, "_correction_partials", "orders.correction")
    values: dict = {}
    if spec["workers"] == 1:
        # Layer boundaries inside the serial correction pass, so that its
        # own time can be told from the sieve's and the roots'.  Pool
        # workers are other processes, so only the serial run is split.
        values["roots_in_lcm_s"] = 0.0
        sieve, lifted_root = orders.iter_primes, orders._lifted_root
        clock = time.perf_counter_ns

        def traced_primes(lo, hi, *args):
            # one span per prime window (ten at n = 1e7): the window is
            # sieved in full inside the span, then handed out as a list
            with tr.span("primes.window"):
                return iter(list(sieve(lo, hi, *args)))

        def traced_root(p, a):
            # ~1e6 calls at n = 1e7: summed, not one span each
            t0 = clock()
            nu = lifted_root(p, a)
            values["roots_in_lcm_s"] += (clock() - t0) / 1e9
            return nu

        orders.iter_primes, orders._lifted_root = traced_primes, traced_root
    name = "orders.lcm_serial" if spec["workers"] == 1 else "orders.lcm_pool"
    with tr.span(name):
        ev = orders.log_lcm_exact(spec["n"], workers=spec["workers"])
    values["log_L"] = ev.log_L
    return values


def probe_residuals(tr: Tracer, spec: dict) -> dict:
    tr.wrap(asymptotics, "compute_B", "asymptotics.compute_B")
    tr.wrap(asymptotics, "neg_log_deriv_zeta", "dirichlet.series")
    tr.wrap(asymptotics, "neg_log_deriv_l4", "dirichlet.series")
    tr.wrap(asymptotics, "_prime_harmonic_sums", "asymptotics.harmonic")
    tr.wrap(asymptotics, "log_lcm_exact", "orders.lcm")
    tr.wrap(orders, "log_P", "orders.log_P")
    tr.wrap(orders, "_correction_partials", "orders.correction")
    with tr.span("asymptotics.residual_scan"):
        reps = asymptotics.residual_scan(spec["grid"], workers=1)
    # the CLI's 12-digit rendering, so rows compare like the CSV columns
    rows = [[r.n, format_value(r.log_L), format_value(r.r)] for r in reps]
    return {"rows": rows}


def probe_discrepancy(tr: Tracer, spec: dict) -> dict:
    tr.wrap(discrepancy, "collect_fractions", "discrepancy.collect")
    tr.wrap(discrepancy, "discrepancy_of_sample", "discrepancy.scan")
    with tr.span("discrepancy.grid"):
        reps = [discrepancy.discrepancy(n) for n in spec["grid"]]
    rows = [
        (
            rep.n,
            rep.D,
            rep.witness.u.numerator,
            rep.witness.u.denominator,
            rep.witness.v.numerator,
            rep.witness.v.denominator,
            rep.sample_size,
        )
        for rep in reps
    ]
    # the CLI's CSV rendering of the same rows, header dropped
    csv_lines = render_csv(["n"], rows).splitlines()[1:]
    return {"csv_lines": csv_lines, "sample_size": reps[-1].sample_size}


PROBES = {
    "sieve": probe_sieve,
    "roots": probe_roots,
    "lcm": probe_lcm,
    "residuals": probe_residuals,
    "discrepancy": probe_discrepancy,
}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    tr = Tracer()
    values = PROBES[spec["probe"]](tr, spec)
    print(json.dumps({"spans": tr.spans, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
