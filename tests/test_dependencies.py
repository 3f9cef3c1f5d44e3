"""The runtime package imports only the standard library, numpy and scipy.

scipy is imported lazily, by the one call that needs each submodule:
``scipy.integrate`` by user-density moments and ``split``'s psi integral,
``scipy.special`` by ``sigma_tail``, ``scipy.stats`` by ``edgeworth split``.
So ``import edgeworth`` and ``import edgeworth.cli`` load numpy alone, and so
do the exact and gridded commands on registry laws.
"""

import ast
import json
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


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


SCIPY_MODULES = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_import_loads_no_scipy():
    code = f"import json, sys, edgeworth, edgeworth.cli; print(json.dumps({SCIPY_MODULES}))"
    assert json.loads(_run_python(code)) == []


def test_exact_and_gridded_commands_load_no_scipy():
    runs = [
        ["kpoly", "--dist", "gamma", "--m", "3"],
        ["taylor"],
        ["ops", "--dist", "fixture2d", "--family", "t", "--t", "5"],
        ["density", "--dist", "laplace", "--n", "8", "--points", "1024"],
        ["tv", "--dist", "exponential*uniform", "--n", "16"],
        ["rate", "--dist", "exponential", "--r", "3", "--n-list", "32,64"],
    ]
    code = f"""
import contextlib, io, json, sys
from edgeworth import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in {runs!r}]
print(json.dumps([codes, {SCIPY_MODULES}]))
"""
    codes, loaded = json.loads(_run_python(code))
    assert codes == [0] * len(runs)
    assert loaded == []
