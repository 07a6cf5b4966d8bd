"""The import edges that keep each cross-check independent of the route it checks.

Each module's imports of other package modules are read from its source
with ``ast``, wherever in the module they sit.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubicmaps"


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, by relative or absolute name."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ("cubicmaps." if node.level else "") + (node.module or "")
            names = [f"cubicmaps.{a.name}" for a in node.names] if base.rstrip(".") == "cubicmaps" else [base]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        out.update(name.split(".")[1] for name in names if name.startswith("cubicmaps."))
    return out


def test_census_imports_only_numbers():
    # the Wick census checks the counts by enumeration: no series, hierarchy or Toda code
    assert package_imports("wick") == {"numbers"}


@pytest.mark.parametrize("module, avoided", [
    ("toda", "critical"),  # the exact counts need no critical constants
    ("finite_n", "equilibrium"),  # the 1/N^2 prediction reads the slice and order 1 from hierarchy
])
def test_module_does_not_import(module, avoided):
    assert avoided not in package_imports(module)


def test_reader_sees_every_import():
    # an empty reading would pass the checks above: cli imports acceptance
    # inside a function, by "from . import"
    assert {"acceptance", "toda", "finite_n"} <= package_imports("cli")
    assert package_imports("toda") == {"hierarchy", "numbers", "series"}
