"""Where the package's heavy dependencies and settings enter, read from the
sources with ast and, for imports, from a fresh process."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import orthocat

SRC = Path(orthocat.__file__).parent


def _imports(path):
    """Dotted names a module imports: ``import a.b`` gives a.b,
    ``from a import b`` gives a and a.b; relative imports are skipped."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy_integrate():
    users = sorted(path.name for path in SRC.glob("*.py")
                   if any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
                          for name in _imports(path)))
    assert users == []


_EVERY_ROUTE = """
import math, sys
import orthocat as oc
V = oc.square_well(-0.5, 1.0)
grid = oc.build_grid(10.0, math.pi, support=(-1.0, 1.0))
oc.gamma_scattering(V, math.pi**2)
oc.gamma_gkm(V, math.pi**2)
oc.gamma_matrix(math.pi**2, V, grid)
oc.contour_anderson(10, V, 10.0, grid)
oc.anderson_result(10, V, 10.0, grid)
print("scipy.integrate" in sys.modules)
"""


def test_scipy_integrate_stays_unimported():
    # no import of it anywhere, direct or through another package
    out = subprocess.run([sys.executable, "-c", _EVERY_ROUTE], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split() == ["False"]


_ENVIRONMENT = ("environ", "environb", "getenv")


def _reads_environment(path):
    """Whether a module names os.environ, os.environb or os.getenv, by
    attribute or by ``from os import``."""
    if any(name in {f"os.{attr}" for attr in _ENVIRONMENT} for name in _imports(path)):
        return True
    return any(isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
               and isinstance(node.value, ast.Name) and node.value.id == "os"
               for node in ast.walk(ast.parse(path.read_text())))


def test_no_module_reads_the_environment():
    # every setting is a config key or a command-line flag
    assert sorted(path.name for path in SRC.glob("*.py") if _reads_environment(path)) == []
