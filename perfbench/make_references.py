"""Regenerate perfbench/references.json, the outputs the benchmark checks.

    python3 perfbench/make_references.py        # from the checkout root, ~3 min

Run it only at a commit whose outputs are trusted; the benchmark then
holds every later commit to them.  Residual and discrepancy references are
the CLI's own CSV output; log_L references are log_lcm_exact values at full
double precision, for every n a workload, its set-up runs or a layer probe
computes.

Before writing, the references are cross-checked once:

* log_lcm_exact(2000) and every residual grid point n <= 2000 against the
  independent big-integer oracle log_lcm_bruteforce;
* log_lcm_exact(n) bit-identical for workers 1 and 2 at every lcm-1e7 n.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadlcm import cli, orders  # noqa: E402

import run  # noqa: E402

BRUTE_N = 2000


def cli_csv_lines(argv: list[str]) -> list[str]:
    """Data lines (header dropped) of the CSV the CLI writes for argv."""
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        if cli.main([*argv, "--out", str(out)]) != 0:
            raise SystemExit(f"quadlcm {' '.join(argv)} failed")
        return out.read_text(encoding="utf-8").splitlines()[1:]


def main() -> int:
    refs: dict = {"log_L": {}, "residuals": {}, "discrepancy": {}}
    brute = orders.log_lcm_bruteforce(BRUTE_N)
    exact = orders.log_lcm_exact(BRUTE_N).log_L
    if not run.close_rel(exact, brute, run.REL_TOL_LOG_L):
        raise SystemExit(f"log_lcm_exact({BRUTE_N}) {exact!r} != oracle {brute!r}")
    checks = [f"log_lcm_exact({BRUTE_N}) = {exact!r}, oracle {brute!r}"]

    ns: set[int] = set()
    for name, wl in run.WORKLOADS.items():
        ns.update(run.trace_inputs(name, index)[0] for index in range(len(wl.variants)))
        if wl.command == "lcm":
            ns.add(int(wl.small))
        for variant in (*wl.variants, wl.small):
            if wl.command == "residuals":
                rows = [line.split(",") for line in cli_csv_lines(wl.argv(variant))]
                refs["residuals"][variant] = [[int(r[0]), r[1], r[3]] for r in rows]
                for n, log_l, _ in refs["residuals"][variant]:
                    if n <= BRUTE_N:
                        oracle = orders.log_lcm_bruteforce(n)
                        # the CSV keeps 12 significant digits
                        if not run.close_rel(float(log_l), oracle, 1e-11):
                            raise SystemExit(f"residuals log_L({n}) {log_l} != oracle {oracle!r}")
                        checks.append(f"residuals log_L({n}) = {log_l}, oracle {oracle!r}")
            elif wl.command == "discrepancy":
                refs["discrepancy"][variant] = cli_csv_lines(wl.argv(variant))

    lcm_ns = {int(v) for v in run.WORKLOADS["lcm-1e7"].variants}
    for n in sorted(ns):
        serial = orders.log_lcm_exact(n, workers=1).log_L
        if n in lcm_ns:
            pooled = orders.log_lcm_exact(n, workers=run.POOL_WORKERS).log_L
            if pooled != serial:
                raise SystemExit(f"log_L({n}): workers 1 {serial!r} != workers 2 {pooled!r}")
            checks.append(f"log_L({n}) bit-identical for workers 1 and {run.POOL_WORKERS}")
        refs["log_L"][str(n)] = serial
        print(f"log_L({n}) = {serial!r}", flush=True)

    refs["crosschecks"] = checks
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
