"""The package ships only code that its CLI, criteria or benchmark run.

A top-level ``def`` or ``class`` in ``src/cubicmaps``, and each non-dunder
method, property and annotated (record) field of a class there, counts
as used when its name appears, outside its own definition, in
``src/cubicmaps`` or ``perfbench`` as an identifier, an attribute, an
imported name, or a part of a dotted string constant (the benchmark's
tracer names what it wraps as strings such as
``"TruncatedSeries.__mul__"``).  A keyword argument that only sets a field
is not a use.  Test-only oracles belong in ``tests/oracles.py``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubicmaps"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree) -> Counter:
    """Every name the subtree refers to, counted once per reference."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            out.update(node.value.split("."))
    return out


def unused_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    scanned = dict(trees)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        scanned[path] = ast.parse(path.read_text(), str(path))
    uses = sum((_names(tree) for tree in scanned.values()), Counter())
    unused = []
    for path, tree in trees.items():
        for node, name, label in _definitions(tree):
            if uses[name] - _names(node)[name] <= 0:
                unused.append(f"{path.stem}.{label}")
    return unused


def _definitions(tree):
    """(node, name, label) of each top-level def and class, and of each
    class's non-dunder methods, properties and annotated (record) fields."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name, node.name
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = member.name
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                name = member.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield member, name, f"{node.name}.{name}"


def test_every_top_level_definition_has_a_caller():
    assert unused_definitions() == []


# the package's result records, each a typing.NamedTuple
RECORDS = {
    "precision.BigFloat", "equilibrium.EquilibriumData", "equilibrium.PhiReport",
    "critical.CriticalConstants", "critical.PainleveReport", "hierarchy.StringHierarchy",
    "toda.GenusCoeffTable", "wick.PairingCensus", "finite_n.RecurrenceData",
    "finite_n.AsymptoticEntry", "finite_n.AsymptoticReport", "finite_n.FiniteNReport",
    "acceptance.CriterionResult",
}


def _is_record(node: ast.ClassDef) -> bool:
    """A ``class X(NamedTuple)`` or a class under a ``@dataclass`` decorator."""
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "NamedTuple":
            return True
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _records() -> dict:
    """``module.Class`` -> ClassDef of every record class in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                out[f"{path.stem}.{node.name}"] = node
    return out


def unread_record_fields() -> list[str]:
    """Fields of a package record that nothing reads as an attribute.

    A field counts as read when ``<expr>.<field>`` is loaded anywhere in
    ``src/cubicmaps``, ``perfbench`` or ``tests``; setting it through the
    constructor is not a read.  Reads are matched by name alone, so a field
    whose name some other object also carries stays hidden even when no
    code reads it (``AsymptoticReport.u`` was one, beside every report and
    equilibrium that has a ``.u``).
    """
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for label, node in _records().items():
        for member in node.body:
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                if member.target.id not in read:
                    unread.append(f"{label}.{member.target.id}")
    return unread


def test_every_record_field_is_read():
    assert set(_records()) == RECORDS  # a scan that finds no record would pass on nothing
    assert unread_record_fields() == []
