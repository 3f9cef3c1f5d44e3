"""The runtime package imports only the standard library, numpy and scipy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "edgeworth"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "edgeworth"}


def _imported_packages(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [(path.name, name) for path in sources
               for name in _imported_packages(path) if name not in ALLOWED]
    assert foreign == []
