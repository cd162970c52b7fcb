"""Package-wide promises that no single module's tests cover."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadlcm
from test_asymptotics import PROBE_GLOBALS

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


def test_every_imported_name_is_used():
    # the names perfbench/probe.py wraps are the only imports a module may
    # keep without reading them
    kept = {(module.__name__, name) for module, names in PROBE_GLOBALS for name in names}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"quadlcm.{path.stem}"
        unused = sorted(name for name in imported - used if (module, name) not in kept)
        assert unused == [], f"{path.name} never uses {unused}"


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


_LCM = ("lcm", "--n", "10", "--workers", "1")
_LCM_ABSENT = ["quadlcm.verify", "quadlcm.discrepancy", "quadlcm.asymptotics",
               "quadlcm.dirichlet", "multiprocessing"]
_RESIDUALS = ("residuals", "--grid", "10:100:10", "--workers", "1")
_RESIDUALS_ABSENT = ["quadlcm.verify", "quadlcm.discrepancy", "multiprocessing"]


@pytest.mark.parametrize(
    ("argv", "present", "absent", "out"),
    [
        (_LCM, "quadlcm.orders", _LCM_ABSENT, None),
        (_RESIDUALS, "quadlcm.asymptotics", _RESIDUALS_ABSENT, None),
        (_LCM, "quadlcm.orders", _LCM_ABSENT, "lcm.json"),
        (_RESIDUALS, "quadlcm.asymptotics", _RESIDUALS_ABSENT, "residuals.csv"),
    ],
    ids=["lcm", "residuals", "lcm-out", "residuals-out"],
)
def test_a_run_imports_only_what_its_command_computes(argv, present, absent, out, tmp_path):
    # with --out the run takes the manifest's sha256, and hashlib would
    # load OpenSSL's libcrypto for it
    if out is not None:
        argv = (*argv, "--out", str(tmp_path / out))
    loaded = _modules_after(*argv)
    assert present in loaded
    assert sorted(loaded.intersection([*absent, "hashlib", "_hashlib"])) == []
    if out is not None:
        assert (tmp_path / f"{out}.manifest.json").exists()


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


ROOT = Path(__file__).resolve().parent.parent


def _probe(spec: dict) -> tuple[dict, dict]:
    """Run one benchmark layer probe in a fresh interpreter, as the traced
    benchmark run does: ({span name: [spans]}, values)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    named: dict = {}
    for span in result["spans"]:
        named.setdefault(span["name"], []).append(span)
    return named, result["values"]


def _children(named: dict, parent: dict, name: str) -> list:
    return [s for s in named.get(name, []) if s["parent"] == parent["id"]]


def test_benchmark_probes_keep_the_span_shapes_their_trace_reads():
    # `perfbench/run.py --trace 1` aborts, and so fails the traced run, when
    # a probe exits non-zero or a span it unpacks is missing or doubled: the
    # probes see a layer only when the package calls it through the module
    # global that probe.py wraps
    serial, one = _probe({"probe": "lcm", "n": 1000, "workers": 1})
    (top,) = serial["orders.lcm_serial"]
    assert len(_children(serial, top, "orders.log_P")) == 1
    assert len(_children(serial, top, "orders.correction")) == 1
    pool, two = _probe({"probe": "lcm", "n": 1000, "workers": 2})
    assert len(pool["orders.lcm_pool"]) == 1
    assert one["log_L"] == two["log_L"]

    grid = [10, 100, 1000]
    resid, values = _probe({"probe": "residuals", "grid": grid})
    (scan,) = resid["asymptotics.residual_scan"]
    assert len(_children(resid, scan, "asymptotics.compute_B")) == 1
    assert len(_children(resid, scan, "orders.lcm")) == len(grid)
    assert [row[0] for row in values["rows"]] == grid

    disc, values = _probe({"probe": "discrepancy", "grid": [100, 1000]})
    assert len(disc["discrepancy.collect"]) >= 1
    assert len(disc["discrepancy.scan"]) >= 1
    assert len(values["csv_lines"]) == 2
