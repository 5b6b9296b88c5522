"""Where the package's heavy dependencies and settings enter, read from the
sources with ast and, for imports, from a fresh process."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import orthocat
from orthocat.sweep import CONFIG_KEYS, SweepConfig

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


def _defaulted_parameters(path):
    """module.function.parameter for every parameter with a default of a
    public module-level function."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            names = [arg.arg for arg in positional[len(positional) - len(args.defaults):]]
            names += [arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
            yield from (f"{path.stem}.{node.name}.{name}" for name in names)


_NEEDS_A_CALLER = "a new setting needs a caller that varies it; otherwise make it a constant"


def test_settings_surface_is_pinned():
    defaulted = sorted(name for path in SRC.glob("*.py") for name in _defaulted_parameters(path))
    assert defaulted == [
        "cli.cli_main.argv",
        "core.build_grid.nodes_per_wavelength",
        "core.fermi_grid.nodes_per_wavelength",
        "core.potential_norms.grid",
        "metrics.det_bounds.result",
        "operators.birman_schwinger.L",
        "operators.bounds_audit.result",
        "operators.bounds_audit.s_samples",
        "operators.omega_operator.L",
        "operators.omega_operator.nu",
        "perturbed.perturbed_eigenvalue.tol",
        "perturbed.perturbed_eigenvalues.tol",
        "perturbed.prufer_phase.tol",
    ], _NEEDS_A_CALLER
    assert [field.name for field in dataclasses.fields(SweepConfig)] == [
        "potential", "rho", "n_list", "nodes_per_wavelength", "workers", "csv_path", "json_path",
    ], _NEEDS_A_CALLER
    assert CONFIG_KEYS == {
        "potential": ("family", "v0", "a", "sigma", "abscissae", "values"),
        "sweep": ("rho", "n_list", "workers"),
        "grid": ("nodes_per_wavelength",),
        "output": ("csv", "json"),
    }, _NEEDS_A_CALLER
