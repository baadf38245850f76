"""The scripts in demos/: they import only names the package exports, and
the catastrophe demo prints the identity it narrates."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import ctmcpert

DEMOS = Path(__file__).resolve().parent.parent / "demos"
PACKAGE = Path(ctmcpert.__file__).resolve().parent


def _imported_names(path):
    """Names a module imports by ``from ctmcpert import ...`` (``from .x
    import ...`` for the package's own ``__init__``)."""
    tree = ast.parse(path.read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "ctmcpert" or node.level > 0)
            for alias in node.names}


def test_demo_imports_are_exported():
    exported = _imported_names(PACKAGE / "__init__.py")
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        names = _imported_names(path)
        assert names, f"{path.name} imports nothing from ctmcpert"
        assert names <= exported, \
            f"{path.name} imports unexported {sorted(names - exported)}"


def test_catastrophe_demo_log_norm_is_minus_the_floor(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / "catastrophe_chain.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    found = re.search(r"floor at t=0\.2: (\S+); log norm of the reduced "
                      r"matrix: (\S+) ", done.stdout)
    assert found, done.stdout
    floor, log_norm = map(float, found.groups())
    assert floor > 0 and log_norm == -floor
