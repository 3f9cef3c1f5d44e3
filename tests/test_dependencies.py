"""The runtime package imports only the standard library, numpy and scipy."""

import ast
import os
import subprocess
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


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs a large share of the import time and no library path needs it
    code = "import sys, edgeworth; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
