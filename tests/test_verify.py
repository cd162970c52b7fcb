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


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verify("exhaustive")
