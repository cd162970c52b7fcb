"""Self-tests of the benchmark harness (not part of the package's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import run


def tiny_workload(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload("lcm", ("100",), "100"))
    from quadlcm.orders import log_lcm_exact

    return {"log_L": {"100": log_lcm_exact(100).log_L}}


def test_each_timed_repetition_is_a_fresh_process(monkeypatch, tmp_path):
    refs = tiny_workload(monkeypatch, tmp_path)
    reps = run.timed_reps("tiny", "100", 0.5, refs)
    assert len(reps) >= 2
    assert all(r.error is None for r in reps)
    assert len({r.pid for r in reps}) == len(reps)
    for r in reps:
        assert r.cpu_s > 0 and r.peak_rss_mb > 0
        assert 0 < r.phases["compute"] < r.wall_s
        assert 0 < r.setup_s < r.wall_s


def test_wrong_output_counts_as_failure(monkeypatch, tmp_path):
    refs = tiny_workload(monkeypatch, tmp_path)
    refs["log_L"]["100"] *= 1 + 1e-9
    result = run.measure("tiny", "100", 0.1, refs)
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False


def test_row_checks_use_the_stated_tolerances():
    refs = run.load_references()
    want = refs["residuals"][run.WORKLOADS["residuals-1e6"].variants[0]]
    rows = [list(r) for r in want]
    assert run.check_residual_rows(want, rows) is None
    # "13746601.2593": one unit in the last printed digit is 1e-4
    top = float(want[-1][1])
    rows[-1][1] = f"{top + 1e-4:.12g}"
    assert run.check_residual_rows(want, rows) is None
    rows[-1][1] = f"{top + 2e-4:.12g}"
    assert run.check_residual_rows(want, rows) is not None
    rows = [list(r) for r in want]
    rows[-1][2] = repr(float(rows[-1][2]) + 2e-6)
    assert run.check_residual_rows(want, rows) is not None


def test_missing_or_changed_rows_count_as_failures(tmp_path):
    refs = run.load_references()
    out = tmp_path / "out.csv"
    for name, header in (("discrepancy-1e6", "n,D"), ("residuals-1e6", "n,log_L,B,r")):
        wl = run.WORKLOADS[name]
        variant = wl.variants[0]
        if wl.command == "discrepancy":
            lines = list(refs["discrepancy"][variant])
        else:
            lines = [f"{n},{log_l},0,{r}" for n, log_l, r in refs["residuals"][variant]]
        out.write_text("\n".join([header, *lines]) + "\n")
        assert run.check_output(refs, wl, variant, out) is None
        for bad in (lines[:-1], lines[-1:], [], lines[:-1] + ["garbage"]):
            out.write_text("\n".join([header, *bad]) + "\n")
            assert run.check_output(refs, wl, variant, out) is not None, (name, bad)
    wl = run.WORKLOADS["discrepancy-1e6"]
    lines = list(refs["discrepancy"][wl.variants[0]])
    lines[-1] = lines[-1].replace(",", ",9", 1)
    out.write_text("\n".join(["n,D", *lines]) + "\n")
    assert run.check_output(refs, wl, wl.variants[0], out) is not None
