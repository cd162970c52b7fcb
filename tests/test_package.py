"""Package-wide promises that no single module's tests cover."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadlcm

SOURCES = sorted(Path(quadlcm.__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside quadlcm
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "quadlcm", (
                    f"{path.name} imports {name}"
                )


# Run in a fresh interpreter: prints the sorted module names loaded after
# `import quadlcm` and, when CLI arguments follow, after `main(argv)`.
_IMPORT_PROBE = """
import contextlib, io, sys
import quadlcm
if sys.argv[1:]:
    from quadlcm.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(" ".join(sorted(sys.modules)))
"""


def _modules_after(*argv: str) -> set[str]:
    src = str(Path(quadlcm.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_submodule():
    loaded = _modules_after()
    assert sorted(m for m in loaded if m.startswith("quadlcm")) == ["quadlcm"]


@pytest.mark.parametrize(
    ("argv", "present", "absent"),
    [
        (("lcm", "--n", "10", "--workers", "1"), "quadlcm.orders",
         ["quadlcm.verify", "quadlcm.discrepancy", "quadlcm.asymptotics",
          "quadlcm.dirichlet", "multiprocessing"]),
        (("residuals", "--grid", "10:100:10", "--workers", "1"), "quadlcm.asymptotics",
         ["quadlcm.verify", "quadlcm.discrepancy", "multiprocessing"]),
    ],
    ids=["lcm", "residuals"],
)
def test_a_run_imports_only_what_its_command_computes(argv, present, absent):
    loaded = _modules_after(*argv)
    assert present in loaded
    assert sorted(loaded.intersection(absent)) == []


def test_every_public_name_is_its_submodule_attribute():
    assert quadlcm.__all__[0] == "__version__"
    for name in quadlcm.__all__[1:]:
        obj = getattr(quadlcm, name)
        assert obj.__module__.startswith("quadlcm."), name
        assert getattr(importlib.import_module(obj.__module__), obj.__name__) is obj, name
    assert quadlcm.interval_discrepancy is importlib.import_module(
        "quadlcm.discrepancy"
    ).discrepancy
    with pytest.raises(AttributeError):
        quadlcm.no_such_name
