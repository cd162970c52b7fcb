"""End-to-end CLI behavior: flags, exit codes, files, and determinism."""

import hashlib
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

    monkeypatch.setattr("quadlcm.orders.log_lcm_exact", boom)
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
    for argv in ([], ["--n", "13", "--grid", "100:1000:10"]):
        code, out, err = run(capsys, "discrepancy", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: discrepancy")


@pytest.mark.parametrize("argv", [["roots", "--lo", "1", "--hi", "5"], ["lcm", "--n", "10"]])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.dat"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not out.parent.exists()


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


def test_constant_b_refuses_past_its_ceilings_at_once():
    # a separate process, so work started before the refusal fails on the timeout
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quadlcm", "constant-b", "--depth", "100000"],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: accelerated mode needs 16 <= depth <= 83\n"


def test_constant_b_help_states_its_ceilings(capsys):
    from quadlcm.asymptotics import MAX_DEPTH, MAX_P_MAX

    with pytest.raises(SystemExit):
        cli.main(["constant-b", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"16 to {MAX_DEPTH};" in text
    assert f"1000 to {MAX_P_MAX}," in text


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


# One small input per data command: the exact stdout line(s), the CSV that
# goes to stdout without --out (None for JSON commands), the sha256 of the
# file written with --out, and the config keys beyond "command" and "out".
GOLDEN = [
    (["psi", "--n", "10"], "n=10 psi=7.83201418051 ratio=0.783201418051\n", None,
     "a97f3318ad3de6e238c2122fd35b79f108823596169a92202a5dec0fcf501ad5", ["n"]),
    (["counts", "--n", "100"], "n=100 pi=25 pi1=11\n", None,
     "664b6d9ae3cfbee9ab5d84f1e6c25ff6ebb86147af095d14d76ed95c01676f87", ["n"]),
    (["roots", "--lo", "1", "--hi", "30"], "",
     "p,nu,frac_num,frac_den\n2,1,1,2\n5,2,2,5\n5,3,3,5\n13,5,5,13\n13,8,8,13\n"
     "17,4,4,17\n17,13,13,17\n29,12,12,29\n29,17,17,29\n",
     "a4641cce318d3a96a16ff1c6eee45e2f078b0d3882c3c053f8c3b0427860a888", ["hi", "lo"]),
    (["orders", "--p", "5", "--n", "10"],
     "p=5 n=10 alpha=5 beta=2 alpha_star=4 beta_star=1\n", None,
     "6f65684d1ee4348b3e1e6a5af3b25fa3f81ede89ebe27d9bf6b391825da40a2e", ["n", "p"]),
    (["lcm", "--n", "10"], "n=10 logL=21.2497962031\n", None,
     "a4d9e6f8af005292e3cf903f3099625dccd9c517c054c3efec239bc44f7466b9", ["n", "workers"]),
    (["brute", "--n", "10"], "n=10 logL=21.2497962031\n", None,
     "acc618d121627f5504feabbe9a20f7298d5007b02de2cf72ba893de9c95e5106", ["cap", "n"]),
    (["badprimes", "--n", "100"], "n=100 count=1 bound=172.354775203\n", "p\n29\n",
     "e17877ad91e0906d479ec020217c4f23c28a110c28f03cc1d6bc71aa94fd06aa", ["n"]),
    (["decomp", "--n", "100"],
     "n=100 small=147.848118388 medium_high=0 beta_star=82.0384701748 "
     "alpha_star=193.42422351 two=33.9642118474 identity_residue=0 bad_primes=1\n", None,
     "1133a5430cb49944288ab92aea4d4d1f184abbbc383d6ad0eb4e01bd15bb8f93", ["n", "workers"]),
    (["discrepancy", "--grid", "13:130:10"], "",
     "n,D,witness_u_num,witness_u_den,witness_v_num,witness_v_den,sample_size\n"
     "13,0.602564102564,5,13,8,13,5\n130,0.159080866107,27,73,46,73,29\n",
     "1bcc3e0f17ab237fd3ac373cd85bfee1d3489aa240ed4561c64cb3195d4173d0", ["grid", "n"]),
    (["equisum", "--g", "t2", "--lo", "4", "--hi", "14"],
     "g=t2 lo=4 hi=14 sum=1.04662721893 prediction=1.33333333333\n", None,
     "ff0a200e2c6c3a50df9d5aaf782193e17cc0c8a455b9720708dfd8cd78b42620", ["g", "hi", "lo"]),
    (["centered", "--grid", "10:1000:10"], "",
     "n,centered_sum,normalized\n10,0.285067873303,0.0916326486247\n"
     "100,1.59609393405,0.135394930972\n1000,-6.39114285828,0.0956423516588\n",
     "c578a64074a3751810f4929006cd076b08f5c2c42563c2645e5b01292e826da9", ["grid"]),
    (["mertens", "--grid", "10:1000:10"], "",
     "x,sum,reference,deviation\n10,1.27598398062,1.03222224753,0.243761733086\n"
     "100,3.42174679652,3.33480734053,0.0869394559888\n"
     "1000,5.67073856749,5.63739243352,0.0333461339675\n",
     "f5b37dc70bfbe8fcc1357bde28c066525b92dcdd911f6230808653ce97b3b521", ["grid"]),
    (["charsum", "--grid", "10:1000:10"], "",
     "x,sum,limit,deviation\n10,-0.471265024401,-0.703082291165,0.231817266764\n"
     "100,-0.602345293433,-0.703082291165,0.100736997732\n"
     "1000,-0.684498565703,-0.703082291165,0.0185837254624\n",
     "025a52aed531c2d96c8993b0882494f0649d0cbf861a1be57e2701afa527a219", ["grid"]),
    (["constant-b", "--depth", "16"],
     "mode=accelerated B=-0.0662756469711 tail_bound=1.52894437975e-08\n", None,
     "99a859223e6ce20cfa44fce5303c34749c2e74d230e8fdc68e8cd1fffa79904e",
     ["depth", "mode", "p_max"]),
    (["residuals", "--grid", "100:1000:10"], "",
     "n,log_L,main,r,r_normalized\n"
     "100,435.572563936,453.889455178,-18.3168912411,-0.358657459475\n"
     "1000,6847.47030816,6841.47964477,5.99066339422,0.0140211350715\n",
     "018d764f4e988bad07525b58baaa1703fd8d499d25a16e2771e0fe2599c20978",
     ["grid", "theta", "workers"]),
]


@pytest.mark.parametrize(
    "argv, line, csv_text, digest, config_keys", GOLDEN, ids=[g[0][0] for g in GOLDEN]
)
def test_golden_output(tmp_path, capsys, argv, line, csv_text, digest, config_keys):
    assert run(capsys, *argv) == (0, line + (csv_text or ""), "")

    out = tmp_path / f"{argv[0]}.dat"
    assert run(capsys, *argv, "--out", str(out)) == (0, f"{line}wrote {out} sha256={digest}\n", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    manifest = json.loads((tmp_path / f"{argv[0]}.dat.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["files"] == {out.name: digest}
    assert sorted(manifest["config"]) == sorted(["command", "out", *config_keys])
    assert set(manifest["wall_seconds"]) == {"compute", "write"}
