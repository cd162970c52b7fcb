"""Package-wide promises that no single module's tests cover."""

import ast
import sys
from pathlib import Path

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
