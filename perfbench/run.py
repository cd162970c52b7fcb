"""quadlcm benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload lcm-1e7 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing.  With --trace 0 the workload's CLI command
(`python -m quadlcm ... --out FILE`) runs again and again for about
--seconds, each repetition in a fresh interpreter.  Every repetition is
its own process because every real CLI invocation starts with cold caches:
repeating calls in one interpreter would let the lru_caches in roots,
dirichlet and asymptotics make later repetitions cheaper than any real run.

End-to-end metrics, medians over the repetitions that passed:

* wall_s       process start to exit, as the parent sees it;
* cpu_s        user+sys of the child and its pool workers (os.wait4);
* peak_rss_mb  ru_maxrss from the same wait4 (the largest of the CLI
               process and its workers);
* setup_s      wall time minus the compute and write phases of the CLI's
               own manifest: interpreter start, imports, parsing and exit.
               None of these depends on n, so it is the median over
               SETUP_REPS short runs of the same subcommand on a small
               input, run before the timed window: a long repetition gives
               one sample per several seconds, which at n = 1e7 leaves too
               few samples for a steady median of a 0.2 s figure.

A run, short or timed, fails when it exits non-zero, times out or writes
output that differs in any row from the stored reference (references.json).
fail_frac, failed over attempted, is printed on its own line and carried by
the final JSON's `failed` and `attempted`.

With --trace 1 each layer is called once, each call in a fresh interpreter
(probe.py), on the same inputs; spans are gathered in memory and written to
.perfbench_out/ at the end, and the per-layer metrics are printed.

--seed picks one input variant from a small fixed table per workload, each
with a stored reference, so that no change can key on one literal n.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  Exit code 0 when the benchmark ran (even when outputs were
wrong), 2 when the checkout holds no quadlcm sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = BENCH / "references.json"

POOL_WORKERS = 2
# Every run must end within 180 s: stop starting repetitions well before.
RUN_BUDGET_S = 150.0
SETUP_REPS = 7
REL_TOL_LOG_L = 1e-12
ABS_TOL_R = 1e-6


@dataclass(frozen=True)
class Workload:
    command: str
    variants: tuple[str, ...]
    # the small input of the set-up runs
    small: str

    def argv(self, variant: str) -> list[str]:
        if self.command == "lcm":
            return ["lcm", "--n", variant, "--workers", str(POOL_WORKERS)]
        if self.command == "residuals":
            return ["residuals", "--grid", variant, "--workers", "1"]
        return ["discrepancy", "--grid", variant]


# Why a workload is in the benchmark is stated in BENCHMARK.json, which
# lists lcm-1e7 and residuals-1e6.  discrepancy-1e6 runs the same way when
# asked for, but is not listed: on a shared 2-vCPU host run values follow
# the host's speed, which drifts over minutes, so every listed workload
# needs long runs, and two fit the time a full set of checked runs may
# take.  Its layers are still measured in every traced run.
#
# The largest n, which sets the cost, differs by at most 0.3% between the
# variants of one workload, so runs with different seeds measure the same
# work.  The discrepancy variants after the first start near 1000, since
# a start near 100 cannot move the top point by less than 1%; the extra
# point n = 100 of the first variant costs far under 1% of a run.
WORKLOADS = {
    "lcm-1e7": Workload(
        "lcm", ("10000000", "9999991", "10000019", "9999973"), "1000"
    ),
    "residuals-1e6": Workload(
        "residuals",
        ("1000:1000000:10", "1001:1001000:10", "999:999000:10", "1003:1003000:10"),
        "10:1000:10",
    ),
    "discrepancy-1e6": Workload(
        "discrepancy",
        ("100:1000000:10", "1001:1001000:10", "999:999000:10", "1003:1003000:10"),
        "10:1000:10",
    ),
}


def parse_grid(spec: str) -> list[int]:
    start, stop, factor = (int(x) for x in spec.split(":"))
    out = []
    while start <= stop:
        out.append(start)
        start *= factor
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    env.pop("QUADLCM_WORKERS", None)
    return env


# ---------------------------------------------------------------- checks


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def close_rel(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


def check_output(refs: dict, wl: Workload, variant: str, out: Path) -> str | None:
    """None when the output file matches the stored reference in full, else
    why not.  Missing, extra or unreadable rows are failures."""
    if not out.exists():
        return "no output file"
    text = out.read_text(encoding="utf-8")
    try:
        if wl.command == "lcm":
            got = json.loads(text)["log_L"]
            want = refs["log_L"][variant]
            return None if close_rel(got, want, REL_TOL_LOG_L) else f"log_L {got!r} != {want!r}"
        lines = text.splitlines()[1:]
        if wl.command == "residuals":
            rows = [line.split(",") for line in lines]
            return check_residual_rows(
                refs["residuals"][variant], [[int(r[0]), r[1], r[3]] for r in rows]
            )
    except (ArithmeticError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return check_discrepancy_lines(refs["discrepancy"][variant], lines)


def printed_unit(text: str) -> Decimal:
    """One unit in the last digit of a printed number ("13746601.2593" -> 1e-4)."""
    return Decimal(1).scaleb(Decimal(text).as_tuple().exponent)


def check_residual_rows(want: list, rows: list) -> str | None:
    """rows and want are [n, log_L, r] with log_L and r as the CSV prints
    them.  The CSV keeps 12 significant digits, too few to show a relative
    1e-12, and two renderings of values a few ulps apart can differ by one
    unit in the last digit; so log_L may differ by that unit at most."""
    if [r[0] for r in rows] != [w[0] for w in want]:
        return f"residual grid {[r[0] for r in rows]} != {[w[0] for w in want]}"
    for (n, log_l, r), (_, want_log_l, want_r) in zip(rows, want):
        if abs(Decimal(log_l) - Decimal(want_log_l)) > printed_unit(want_log_l):
            return f"n={n}: log_L {log_l} != {want_log_l}"
        if abs(float(r) - float(want_r)) > ABS_TOL_R:
            return f"n={n}: r {r} != {want_r}"
    return None


def check_discrepancy_lines(want: list[str], lines: list[str]) -> str | None:
    """The CSV data rows must equal the reference rows exactly, D and the
    witness fractions included."""
    return None if lines == want else f"discrepancy rows {lines} != {want}"


# ---------------------------------------------------------------- runs


@dataclass
class Rep:
    pid: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    phases: dict
    error: str | None

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.phases.get("compute", 0.0) - self.phases.get("write", 0.0)


def run_cli(argv: list[str], out: Path, timeout: float) -> Rep:
    """Run `python -m quadlcm argv --out out` in a fresh interpreter and
    take wall time, CPU and peak RSS of it and its reaped children."""
    err_path = out.with_suffix(".stderr")
    timed_out = threading.Event()

    def kill(pid: int) -> None:
        timed_out.set()
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadlcm", *argv, "--out", str(out)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 1.0), kill, (proc.pid,))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    error = None
    phases: dict = {}
    if timed_out.is_set():
        error = f"timed out after {timeout:.0f} s"
    elif code != 0:
        error = f"exit {code}: {err_path.read_text(errors='replace').strip()[-300:]}"
    elif not Path(str(out) + ".manifest.json").exists():
        error = "no manifest written"
    else:
        manifest = Path(str(out) + ".manifest.json")
        phases = json.loads(manifest.read_text(encoding="utf-8"))["wall_seconds"]
    return Rep(
        pid=proc.pid,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        phases=phases,
        error=error,
    )


def out_path(workload: str, tag: str) -> Path:
    suffix = ".json" if WORKLOADS[workload].command == "lcm" else ".csv"
    return OUT / f"{workload}-{tag}{suffix}"


def checked_run(name: str, variant: str, tag: str, refs: dict, timeout: float) -> Rep:
    wl = WORKLOADS[name]
    out = out_path(name, tag)
    rep = run_cli(wl.argv(variant), out, timeout)
    if rep.error is None:
        rep.error = check_output(refs, wl, variant, out)
    return rep


def timed_reps(name: str, variant: str, seconds: float, refs: dict) -> list[Rep]:
    """Repeat the workload's CLI run for about `seconds`: another
    repetition starts while it should end less than half a repetition past
    the mark, so run length stays near `seconds` for every workload."""
    start = time.perf_counter()
    reps: list[Rep] = []
    while True:
        elapsed = time.perf_counter() - start
        if reps:
            typical = statistics.median(r.wall_s for r in reps)
            if elapsed + typical / 2 > seconds or elapsed + 1.5 * typical > RUN_BUDGET_S:
                break
        reps.append(checked_run(name, variant, str(len(reps)), refs, RUN_BUDGET_S + 20.0 - elapsed))
    return reps


def measure(name: str, variant: str, seconds: float, refs: dict) -> dict:
    small = WORKLOADS[name].small
    setups = [checked_run(name, small, f"setup{i}", refs, 60.0) for i in range(SETUP_REPS)]
    reps = timed_reps(name, variant, seconds, refs)
    for kind, runs in (("setup", setups), ("rep", reps)):
        for i, rep in enumerate(runs):
            print(
                f"{kind} {i} pid={rep.pid} wall_s={rep.wall_s:.4f} cpu_s={rep.cpu_s:.4f} "
                f"peak_rss_mb={rep.peak_rss_mb:.1f} setup_s={rep.setup_s:.4f} "
                f"{'ok' if rep.error is None else 'FAIL ' + rep.error}"
            )
    runs = setups + reps
    pids = [r.pid for r in runs]
    distinct = len(set(pids)) == len(pids)
    if not distinct:
        print(f"FAIL runs shared a process: pids {pids}")
    failed = sum(r.error is not None for r in runs)
    print(f"fail_frac={failed / len(runs):.4f} ({failed}/{len(runs)})")
    good = [r for r in reps if r.error is None] or reps
    good_setups = [r for r in setups if r.error is None] or setups
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in good), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in good), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in good), "MB"),
        "setup_s": (statistics.median(r.setup_s for r in good_setups), "s"),
    }
    return {
        "correct": failed == 0 and distinct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------- trace


class SpanLog:
    """Spans of one traced run, gathered from the probes' processes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, parent: int | None, start_ns: int, end_ns: int) -> int:
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "name": name, "parent": parent, "start_ns": start_ns, "end_ns": end_ns}
        )
        return sid

    def graft(self, child_spans: list[dict], parent: int) -> None:
        base = len(self.spans)
        for s in child_spans:
            up = parent if s["parent"] is None else base + s["parent"]
            self.add(s["name"], up, s["start_ns"], s["end_ns"])

    @staticmethod
    def duration(s: dict) -> float:
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.named(name))

    def children(self, span: dict, name: str | None = None) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["parent"] == span["id"] and (name is None or s["name"] == name)
        ]

    def explained(self, root: dict) -> float:
        """Share of root's time that its child spans cover."""
        return sum(self.duration(s) for s in self.children(root)) / self.duration(root)


def run_probe(log: SpanLog, root: int, spec: dict) -> dict:
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=RUN_BUDGET_S,
    )
    t1 = time.perf_counter_ns()
    if proc.returncode != 0:
        raise RuntimeError(f"probe {spec} failed: {proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    sid = log.add(f"probe.{spec['probe']}", root, t0, t1)
    log.graft(result["spans"], sid)
    return result["values"]


def trace_inputs(name: str, index: int) -> tuple[int, list[int], list[int]]:
    """(n, residual grid, discrepancy grid) for the layer probes.

    n is the largest n the workload computes.  A layer that the workload
    does not exercise is measured on the same-seed input of the workload
    that does (only the top point of the discrepancy grid, so that the
    lcm-1e7 trace stays within its time budget).
    """
    wl = WORKLOADS[name]
    variant = wl.variants[index]
    n = int(variant) if wl.command == "lcm" else parse_grid(variant)[-1]
    res_grid = parse_grid(WORKLOADS["residuals-1e6"].variants[index])
    disc_grid = parse_grid(WORKLOADS["discrepancy-1e6"].variants[index])
    if wl.command != "discrepancy":
        disc_grid = disc_grid[-1:]
    return n, res_grid, disc_grid


def traced(name: str, index: int, refs: dict) -> dict:
    wl = WORKLOADS[name]
    variant = wl.variants[index]
    n, res_grid, disc_grid = trace_inputs(name, index)
    log = SpanLog()
    t0 = time.perf_counter_ns()
    root = log.add("trace", None, t0, t0)

    sieve = run_probe(log, root, {"probe": "sieve", "n": n})
    roots = run_probe(log, root, {"probe": "roots", "n": n})
    serial = run_probe(log, root, {"probe": "lcm", "n": n, "workers": 1})
    pool = run_probe(log, root, {"probe": "lcm", "n": n, "workers": POOL_WORKERS})
    disc = run_probe(log, root, {"probe": "discrepancy", "grid": disc_grid})
    resid = run_probe(log, root, {"probe": "residuals", "grid": res_grid})
    c0 = time.perf_counter_ns()
    out = out_path(name, "trace")
    rep = run_cli(wl.argv(variant), out, RUN_BUDGET_S)
    log.add("cli.run", root, c0, time.perf_counter_ns())
    log.spans[root]["end_ns"] = time.perf_counter_ns()

    want_log_l = refs["log_L"][str(n)]
    checks = {
        f"log_L bit-identical for workers 1 and {POOL_WORKERS}": None
        if serial["log_L"] == pool["log_L"]
        else f"{serial['log_L']!r} != {pool['log_L']!r}",
        f"log_L({n}) matches the reference": None
        if close_rel(serial["log_L"], want_log_l, REL_TOL_LOG_L)
        else f"{serial['log_L']!r} != {want_log_l!r}",
        "residual rows match the reference": check_residual_rows(
            refs["residuals"][WORKLOADS["residuals-1e6"].variants[index]], resid["rows"]
        ),
        # the probe may run only the top grid point: compare those rows
        "discrepancy rows match the reference": check_discrepancy_lines(
            [
                row
                for row in refs["discrepancy"][WORKLOADS["discrepancy-1e6"].variants[index]]
                if int(row.split(",")[0]) in disc_grid
            ],
            disc["csv_lines"],
        ),
        "CLI run matches the reference": rep.error or check_output(refs, wl, variant, out),
    }
    for check, problem in checks.items():
        print(f"{'ok  ' if problem is None else 'FAIL'} {check}{': ' + problem if problem else ''}")

    sieve_s, sqrt_s = log.total("primes.sieve"), log.total("roots.sqrt")
    (serial_span,) = log.named("orders.lcm_serial")
    serial_s = log.duration(serial_span)
    (log_p_span,) = log.children(serial_span, "orders.log_P")
    log_p_s = log.duration(log_p_span)
    # the correction pass's own time: its span less the sieve windows and
    # root lifts timed inside it, all in the one serial process
    (correction_span,) = log.children(serial_span, "orders.correction")
    correction_self_s = (
        log.duration(correction_span)
        - sum(log.duration(s) for s in log.children(correction_span, "primes.window"))
        - serial["roots_in_lcm_s"]
    )
    speedup = serial_s / log.total("orders.lcm_pool")
    # the traced serial computation of this workload; explained_frac is the
    # share of it inside its child layer spans, near 1 since those wrap
    # whole functions: it shows only time spent in the glue between them
    (serial_root,) = log.named(
        {
            "lcm": "orders.lcm_serial",
            "residuals": "asymptotics.residual_scan",
            "discrepancy": "discrepancy.grid",
        }[wl.command]
    )
    metrics = {
        "primes.sieve_s": (sieve_s, "s"),
        "primes.count": (sieve["count"], "count"),
        "roots.sqrt_s": (sqrt_s, "s"),
        "roots.count": (roots["count"], "count"),
        "roots.us_per_root": (1e6 * sqrt_s / roots["count"], "us"),
        "orders.log_P_s": (log_p_s, "s"),
        "orders.lcm_serial_s": (serial_s, "s"),
        "orders.correction_self_s": (correction_self_s, "s"),
        "orders.pool_speedup": (speedup, "x"),
        "orders.pool_efficiency": (speedup / POOL_WORKERS, "frac"),
        # at the top grid point, the n the sample size belongs to
        "discrepancy.collect_s": (log.duration(log.named("discrepancy.collect")[-1]), "s"),
        "discrepancy.scan_s": (log.duration(log.named("discrepancy.scan")[-1]), "s"),
        "discrepancy.sample_size": (disc["sample_size"], "count"),
        "asymptotics.compute_B_s": (log.total("asymptotics.compute_B"), "s"),
        "dirichlet.series_s": (log.total("dirichlet.series"), "s"),
        "asymptotics.harmonic_s": (log.total("asymptotics.harmonic"), "s"),
        "asymptotics.residual_scan_s": (log.total("asymptotics.residual_scan"), "s"),
        "reports.write_s": (rep.phases.get("write", 0.0), "s"),
        "cli.compute_s": (rep.phases.get("compute", 0.0), "s"),
        "trace.explained_frac": (log.explained(serial_root), "frac"),
    }
    spans_file = OUT / f"trace-{name}-{variant.replace(':', '_')}.json"
    spans_file.write_text(json.dumps(log.spans, indent=1) + "\n", encoding="utf-8")
    print(f"spans: {len(log.spans)} written to {spans_file.relative_to(ROOT)}")
    failed = sum(problem is not None for problem in checks.values())
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------- main


def warm_up() -> None:
    """Compile the package's bytecode and fault its files into the page
    cache, so the first timed repetition starts like the others."""
    subprocess.run(
        [sys.executable, "-m", "quadlcm", "lcm", "--n", "100"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quadlcm" / "__init__.py").is_file():
        print(f"error: no quadlcm sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    index = args.seed % len(wl.variants)
    variant = wl.variants[index]
    print(f"workload={args.workload} seed={args.seed} variant={variant}")
    print(f"command: python -m quadlcm {' '.join(wl.argv(variant))} --out FILE")

    refs = load_references()
    shutil.rmtree(OUT, ignore_errors=True)
    (OUT / "tmp").mkdir(parents=True)
    warm_up()
    if args.trace:
        result = traced(args.workload, index, refs)
    else:
        result = measure(args.workload, variant, args.seconds, refs)
    for key, (value, unit) in result["metrics"].items():
        print(f"{key:28s} {value:14.6f} {unit}")
    result["metrics"] = {
        key: {"value": value, "unit": unit} for key, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
