"""Where the package's heavy dependencies and settings enter, read from the
sources with ast and, for imports, from a fresh process."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import orthocat
from orthocat import cli, sweep
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


_SVD_ROUTINES = {"svd", "svdvals"}


def _calls(path, routines):
    """Whether a module calls a routine of the given names, as an attribute
    (``np.linalg.svd``) or by a bare name."""
    return any(isinstance(node, ast.Call)
               and (getattr(node.func, "attr", None) in routines
                    or getattr(node.func, "id", None) in routines)
               for node in ast.walk(ast.parse(path.read_text())))


def test_no_module_calls_an_svd():
    # a row reads I, ln D and the defect off |A|_F^2, one LU and a block
    # iteration; the audit's dense 2-norms go through numpy.linalg.norm
    assert sorted(path.name for path in SRC.glob("*.py") if _calls(path, _SVD_ROUTINES)) == []


def test_no_module_builds_a_box_grid():
    # every quadrature the library builds for itself is a set of panels on the
    # support of V; build_grid serves the benchmark and the tests
    assert sorted(path.name for path in SRC.glob("*.py") if _calls(path, {"build_grid"})) == []
    defined = {node.name for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "fermi_grid" not in defined


def test_operators_do_not_import_metrics():
    # the audit takes the row it audits instead of solving one
    tree = ast.parse((SRC / "operators.py").read_text())
    relative = {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                for name in [node.module or ""] + [alias.name for alias in node.names]}
    assert "metrics" not in relative


def test_sweep_rows_read_the_support_alone(monkeypatch):
    # every row of a sweep on the README well, its two gamma_matrix grids, and
    # the grids the command line hands to the contour route and the audit get
    # a quadrature inside [-a, a], not a grid on a box
    boundaries, row, gamma = [], sweep.anderson_result, sweep.gamma_matrix

    def recording(n, V, L, grid):
        boundaries.append(grid.panel_boundaries)
        return row(n, V, L, grid)

    def recording_gamma(nu, V, grid):
        boundaries.append(grid.panel_boundaries)
        return gamma(nu, V, grid)

    monkeypatch.setattr(sweep, "anderson_result", recording)
    monkeypatch.setattr(sweep, "gamma_matrix", recording_gamma)
    sweep.run_sweep(SweepConfig(potential={"family": "square_well", "v0": "-0.5", "a": "1.0"},
                                rho=1.0, n_list=(5, 10, 20)))
    assert len(boundaries) == 5

    monkeypatch.setattr(cli, "contour_anderson", lambda n, V, L, grid: boundaries.append(grid.panel_boundaries) or 0.0)
    monkeypatch.setattr(cli, "bounds_audit", lambda V, n, L, grid, result: boundaries.append(grid.panel_boundaries) or [])
    well = ["--potential", "square_well", "--v0", "0.1", "--a", "1", "--N", "10", "--rho", "1"]
    assert cli.cli_main(["anderson", "--contour"] + well) == 0
    assert cli.cli_main(["audit"] + well) == 0
    assert len(boundaries) == 7
    assert all(b[0] >= -1.0 and b[-1] <= 1.0 for b in boundaries)


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
        "metrics.det_bounds.result",
        "operators.birman_schwinger.L",
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


def _public_names():
    """module.name for every name in a module's ``__all__`` and for every name
    that ``orthocat/__init__.py`` imports from a module."""
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                yield from (f"{path.stem}.{elt.value}" for elt in node.value.elts)
            elif path.stem == "__init__" and isinstance(node, ast.ImportFrom) and node.level:
                yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _used_names(tree):
    """(owner, identifier) for every Name and Attribute a module's code reads;
    the owner is the top-level definition that holds it, or None.  Imports and
    the ``__all__`` list are not uses."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            continue
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield owner, sub.id
            elif isinstance(sub, ast.Attribute):
                yield owner, sub.attr


def _benchmark_names():
    """Identifiers and string constants of ``perfbench/``: the tracer hooks
    its targets by strings such as ``"perturbed_eigenfunction"``."""
    names = set()
    for path in (SRC.parent.parent / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_public_names_have_a_caller():
    # every public name is used by the library, outside its own definition, or
    # by the benchmark; code only the tests call belongs in tests/reference.py
    uses = {(path.stem, owner, name) for path in SRC.glob("*.py") if path.stem != "__init__"
            for owner, name in _used_names(ast.parse(path.read_text()))}
    benchmark = _benchmark_names()
    unused = sorted({qualified for qualified in _public_names()
                     for module, name in [qualified.split(".")]
                     if name not in benchmark
                     and not any(used == name and (where, owner) != (module, name)
                                 for where, owner, used in uses)})
    assert unused == []
