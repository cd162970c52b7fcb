"""The self-check harness at quick level must be green and well-formed."""

import dataclasses
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest
import sympy

import quadlcm
from quadlcm.verify import CheckResult, _polynomial_sieve, run_verify


@pytest.fixture(scope="module")
def quick_results():
    return run_verify("quick")


def test_quick_level_all_pass(quick_results):
    failed = [r.name for r in quick_results if not r.ok]
    assert failed == []


def test_result_shape(quick_results):
    assert len(quick_results) == 20
    for r in quick_results:
        assert isinstance(r, CheckResult)
        assert dataclasses.is_dataclass(r)
        assert r.name and isinstance(r.name, str)
        assert isinstance(r.detail, str)


def test_floor_semantics_check_present(quick_results):
    names = [r.name for r in quick_results]
    assert "count_solutions_upto floor semantics" in names


def test_checks_still_check_under_python_O():
    # a kernel off by one must fail the root-pairs check with asserts stripped
    script = (
        "from quadlcm import roots, verify\n"
        "good = roots._sqrt_minus_one_value\n"
        "roots._sqrt_minus_one_value = lambda p: good(p) + 1\n"
        "res = {r.name: r for r in verify.run_verify('quick')}\n"
        "r = res['root pairs, lifting, exhaustive scans']\n"
        "print(__debug__, r.ok, r.detail)\n"
    )
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    assert proc.stdout.split()[:2] == ["False", "False"], proc.stdout
    assert "roots mod 5" in proc.stdout


def test_stream_checks_still_check_under_python_O():
    # a 1 mod 4 view missing p = 13, a mask count one too high and a stream
    # giving the larger root above 1000 must each fail their check under -O
    script = (
        "from quadlcm import primes, roots, verify\n"
        "def detail(check):\n"
        "    try:\n"
        "        check(verify.QUICK)\n"
        "    except AssertionError as exc:\n"
        "        return str(exc)\n"
        "    return 'passed'\n"
        "view, count, stream = primes.iter_primes_one_mod_four, primes.count_primes, "
        "roots.prime_roots\n"
        "primes.iter_primes_one_mod_four = lambda lo, hi, seg=primes.DEFAULT_SEGMENT: "
        "(q for q in view(lo, hi, seg) if q != 13)\n"
        "print(detail(verify.check_sieve_windows))\n"
        "primes.iter_primes_one_mod_four = view\n"
        "primes.count_primes = lambda lo, hi, seg=primes.DEFAULT_SEGMENT: "
        "count(lo, hi, seg) + 1\n"
        "print(detail(verify.check_sieve_windows))\n"
        "primes.count_primes = count\n"
        "roots.prime_roots = lambda lo, hi: "
        "((q, q - nu if q > 1000 else nu) for q, nu in stream(lo, hi))\n"
        "print(detail(verify.check_root_pairs))\n"
        "print(__debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    view, count, stream, debug = proc.stdout.splitlines()
    assert debug == "False"
    assert view.startswith("1 mod 4 view differs"), view
    assert count.startswith("mask count differs"), count
    assert stream.startswith("prime_roots gives"), stream


def test_order_rule_check_still_checks_under_python_O():
    # an order rule that never counts past level 1 (beta capped at 1,
    # alpha = alpha_star) must fail the floor-semantics check, and an lcm
    # fold that never counts past level 1 the lcm oracle, with asserts
    # stripped
    script = (
        "import math\n"
        "from quadlcm import orders, roots, verify\n"
        "def detail(check):\n"
        "    try:\n"
        "        check(verify.QUICK)\n"
        "    except AssertionError as exc:\n"
        "        return str(exc)\n"
        "    return 'passed'\n"
        "good = orders._order_counts\n"
        "def level_one(p, n, nu):\n"
        "    alpha, beta, alpha_star = good(p, n, nu)\n"
        "    return alpha_star, min(beta, 1), alpha_star\n"
        "orders._order_counts = level_one\n"
        "print(detail(verify.check_count_solutions_upto))\n"
        "orders._order_counts = good\n"
        "def level_one_fold(args):\n"
        "    lo, hi, n = args\n"
        "    return math.fsum((orders._level_count(n, nu, p) - 1) * math.log(p)\n"
        "                     for p, nu in roots.prime_roots(lo, hi))\n"
        "orders._correction_block = level_one_fold\n"
        "print(detail(verify.check_lcm_oracle))\n"
        "print(__debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    counts, fold, debug = proc.stdout.splitlines()
    assert debug == "False"
    assert counts == "alpha_exact examples", counts
    assert fold.startswith("log L mismatch at n="), fold


def test_polynomial_sieve_factors_like_sympy():
    n = 2000
    found = defaultdict(dict)
    for i, q, e in _polynomial_sieve(n):
        assert q not in found[i], (i, q)
        found[i][q] = e
    assert sorted(found) == list(range(1, n + 1))
    for i in range(1, n + 1):
        assert found[i] == sympy.factorint(i * i + 1), i


def test_root_sieve_still_checks_under_python_O():
    # a lift that gives the larger root above modulus 1000 keeps every
    # congruence and lift-consistency clause true, so only the
    # comparison with the sieve of i²+1 can catch it
    script = (
        "from quadlcm import roots, verify\n"
        "good = roots._lift\n"
        "def larger(p, nu, pk):\n"
        "    x = good(p, nu, pk)\n"
        "    return p * pk - x if p * pk > 1000 else x\n"
        "roots._lift = larger\n"
        "try:\n"
        "    verify.check_root_pairs(verify.QUICK)\n"
        "    print('passed')\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "print(__debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    detail, debug = proc.stdout.splitlines()
    assert debug == "False"
    assert detail == "exhaustive roots 5^5", detail


def test_broken_one_mod_four_sieve_fails_verify_instead_of_hanging(tmp_path):
    # base primes started at k ≡ 1 instead of k ≡ p mod 4 put odd squares
    # such as 9 into the 1 mod 4 stream; verify must report, not spin in the
    # non-residue search
    package = tmp_path / "quadlcm"
    shutil.copytree(os.path.dirname(quadlcm.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / "primes.py").read_text()
    assert source.count("(p - k) % step") == 1
    (package / "primes.py").write_text(source.replace("(p - k) % step", "(1 - k) % step"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "quadlcm", "verify", "quick"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 1, proc.stdout
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert fails[0].startswith("FAIL sieve windows and prime counts"), proc.stdout
    assert any("is not a prime" in line for line in fails), proc.stdout


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verify("exhaustive")
