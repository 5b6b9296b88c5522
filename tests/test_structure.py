"""Where the package's heavy dependencies and settings enter, read from the
sources with ast."""

import ast
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


def test_scipy_integrate_has_one_importer():
    users = sorted(path.name for path in SRC.glob("*.py")
                   if any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
                          for name in _imports(path)))
    assert users == ["scattering.py"]


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
