"""The self-check harness at quick level must be green and well-formed."""

import dataclasses
import os
import subprocess
import sys

import pytest

import quadlcm
from quadlcm.verify import CheckResult, run_verify


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
    # alpha = alpha_star) must fail the lcm oracle with asserts stripped
    script = (
        "from quadlcm import orders, verify\n"
        "good = orders._order_counts\n"
        "def level_one(p, n, nu):\n"
        "    alpha, beta, alpha_star = good(p, n, nu)\n"
        "    return alpha_star, min(beta, 1), alpha_star\n"
        "orders._order_counts = level_one\n"
        "try:\n"
        "    verify.check_lcm_oracle(verify.QUICK)\n"
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
    assert detail.startswith("log L mismatch at n="), detail


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verify("exhaustive")
