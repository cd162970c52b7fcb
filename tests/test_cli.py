"""End-to-end CLI behavior: flags, exit codes, files, and determinism."""

import json
import os
import subprocess
import sys

import pytest

import quadlcm
from quadlcm import cli
from quadlcm.errors import RangeOverflowError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lcm_stdout_line(capsys):
    code, out, _ = run(capsys, "lcm", "--n", "10")
    assert code == 0
    assert out == "n=10 logL=21.2497962031\n"


def test_lcm_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "lcm", "--n", "0")
    assert code == 2
    assert "n >= 1" in err


def test_brute_cap_exit_code(capsys):
    code, _, err = run(capsys, "brute", "--n", "100", "--cap", "50")
    assert code == 3
    assert "capped" in err


def test_overflow_exit_code(capsys, monkeypatch):
    def boom(n, workers=1):
        raise RangeOverflowError("modulus beyond the machine range")

    monkeypatch.setattr(cli.orders, "log_lcm_exact", boom)
    code, _, err = run(capsys, "lcm", "--n", "10")
    assert code == 4
    assert "machine range" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_parse_grid():
    assert cli.parse_grid("1000:10000000:10") == [10**3, 10**4, 10**5, 10**6, 10**7]
    assert cli.parse_grid("7:7:2") == [7]
    assert cli.parse_grid("5:39:3") == [5, 15]
    with pytest.raises(cli.UsageError):
        cli.parse_grid("10:5:2")
    with pytest.raises(cli.UsageError):
        cli.parse_grid("1:10:1")
    with pytest.raises(cli.UsageError):
        cli.parse_grid("1:10")
    with pytest.raises(cli.UsageError):
        cli.parse_grid("a:b:c")


def test_residuals_contract(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code, _, _ = run(
        capsys, "residuals", "--grid", "100:10000:10", "--theta", "0.44",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,log_L,main,r,r_normalized"
    assert len(lines) == 4  # header + 3 grid points
    manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
    assert manifest["files"]["res.csv"]
    assert manifest["config"]["theta"] == 0.44
    assert manifest["config"]["workers"] == 1


def test_residuals_theta_validation(capsys):
    code, _, err = run(capsys, "residuals", "--grid", "100:1000:10", "--theta", "0.45")
    assert code == 2
    assert "4/9" in err


def test_grid_validation_exit(capsys):
    code, _, err = run(capsys, "residuals", "--grid", "100:10:10")
    assert code == 2


def test_rerun_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "discrepancy", "--grid", "100:1000:10", "--out", str(a))
    run(capsys, "discrepancy", "--grid", "100:1000:10", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_workers_do_not_change_bytes(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "lcm", "--n", "20000", "--workers", "1", "--out", str(a))
    monkeypatch.setenv("QUADLCM_WORKERS", "2")
    run(capsys, "lcm", "--n", "20000", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_workers_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("QUADLCM_WORKERS", "zero")
    code, _, err = run(capsys, "lcm", "--n", "10")
    assert code == 2
    assert "QUADLCM_WORKERS" in err


def test_discrepancy_csv_columns(capsys):
    code, out, _ = run(capsys, "discrepancy", "--n", "13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "n,D,witness_u_num,witness_u_den,witness_v_num,witness_v_den,sample_size"
    )
    assert lines[1] == "13,0.602564102564,5,13,8,13,5"


def test_discrepancy_requires_n_or_grid(capsys):
    code, _, err = run(capsys, "discrepancy")
    assert code == 2


def test_equisum_hand_value(capsys):
    code, out, _ = run(capsys, "equisum", "--g", "t2", "--lo", "4", "--hi", "14")
    assert code == 0
    assert "sum=1.04662721893" in out
    assert "prediction=1.33333333333" in out


def test_constant_b_json(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, text, _ = run(capsys, "constant-b", "--out", str(out))
    assert code == 0
    assert "B=-0.0662756342131" in text
    obj = json.loads(out.read_text())
    assert obj["mode"] == "accelerated"
    assert obj["depth"] == 48
    assert obj["tail_bound"] < 1e-18
    assert -0.0662756392 <= obj["value"] <= -0.0662756292


@pytest.mark.parametrize("p", [9, 1, 21, 4, 0, -3])
def test_orders_rejects_non_prime_p(p):
    # a separate process, so a hang in the root search fails on the timeout
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quadlcm", "orders", "--p", str(p), "--n", "10"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: p = {p} is not a prime\n"


def test_roots_table(capsys):
    code, out, _ = run(capsys, "roots", "--lo", "1", "--hi", "5")
    assert code == 0
    assert out.splitlines() == ["p,nu,frac_num,frac_den", "2,1,1,2", "5,2,2,5", "5,3,3,5"]


def test_badprimes(capsys):
    code, out, _ = run(capsys, "badprimes", "--n", "100")
    assert code == 0
    assert "n=100 count=1" in out
    assert out.splitlines()[-2:] == ["p", "29"]


def test_psi_and_counts(capsys):
    code, out, _ = run(capsys, "psi", "--n", "10")
    assert code == 0 and "psi=7.83201418051" in out
    code, out, _ = run(capsys, "counts", "--n", "100")
    assert code == 0 and out == "n=100 pi=25 pi1=11\n"


def test_verify_quick_cli(capsys):
    code, out, _ = run(capsys, "verify", "quick")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "all 20 checks passed" in lines[-1]
    assert any("count_solutions_upto" in line for line in lines)
