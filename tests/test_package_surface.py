"""The package ships only code that its CLI, criteria or benchmark run.

A top-level ``def`` or ``class`` in ``src/cubicmaps``, and each non-dunder
method, property and annotated (record) field of a class there, counts
as used when its name appears, outside its own definition, in
``src/cubicmaps`` or ``perfbench`` as an identifier, an attribute, an
imported name, or a part of a dotted string constant (the benchmark's
tracer names what it wraps as strings such as
``"TruncatedSeries.__mul__"``).  A keyword argument that only sets a field
is not a use.  Test-only oracles belong in ``tests/oracles.py``.

A parameter with a default is an option, and the package keeps only the
options its code both sets and leaves to the default: each one must be
passed, by keyword, by position or through ``*args``/``**kwargs``, in at
least one call to its function's name in ``src/cubicmaps`` or
``perfbench``, and omitted in at least one other, which gives it neither
by keyword nor by position and has no ``*args``/``**kwargs``.  A default
that every call overrides only restates a value its callers own.

A record that the CLI prints whole, as ``encode_value(record._asdict())``,
names its fields nowhere, so both checks count them as used only through
``PRINTED_WHOLE``: its command is run and must print every field name of
the record as a key of the record's JSON object.
"""

import ast
import contextlib
import io
import json
import re
from collections import Counter
from functools import cache
from pathlib import Path

from cubicmaps.cli import main

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


# label -> (argv, keys from the JSON root down to the record's object)
PRINTED_WHOLE = {
    "finite_n.FiniteNReport": ("validate --N 2 --u 1/16 --precision 30", ()),
    "finite_n.AsymptoticEntry": ("validate --N 2 --u 1/16 --precision 30", ("asymptotic",)),
    "hierarchy.StringHierarchy": ("hierarchy --max-k 1 --horizon 2", ()),
    "equilibrium.PhiReport": ("equilibrium --u 1/20 --precision 20", ("phi_report",)),
}


def _fields(node: ast.ClassDef) -> list[str]:
    return [m.target.id for m in node.body if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]


@cache
def printed_fields() -> frozenset:
    """``module.Class.field`` of each field of a ``PRINTED_WHOLE`` record,
    once its command has printed them all as keys of the record's object."""
    records, out = _records(), set()
    for label, (argv, path) in PRINTED_WHOLE.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv.split()) == 0, argv
        obj = json.loads(buf.getvalue())
        for key in path:
            obj = obj[key]
        fields = _fields(records[label])
        assert [f for f in fields if f not in obj] == [], (label, argv)
        out.update(f"{label}.{f}" for f in fields)
    return frozenset(out)


def unused_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    scanned = dict(trees)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        scanned[path] = ast.parse(path.read_text(), str(path))
    uses = sum((_names(tree) for tree in scanned.values()), Counter())
    unused = []
    for path, tree in trees.items():
        for node, name, label in _definitions(tree):
            full = f"{path.stem}.{label}"
            if uses[name] - _names(node)[name] <= 0 and full not in printed_fields():
                unused.append(full)
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
    constructor is not a read, but printing the whole record is
    (``printed_fields``).  Reads are matched by name alone, so a field
    whose name some other object also carries stays hidden even when no
    code reads it (``AsymptoticReport.u`` was one, beside every report and
    equilibrium that has a ``.u``, and ``PainleveReport.G`` another, beside
    ``CriticalConstants.G``).
    """
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for label, node in _records().items():
        for name in _fields(node):
            if name not in read and f"{label}.{name}" not in printed_fields():
                unread.append(f"{label}.{name}")
    return unread


def test_every_record_field_is_read():
    assert set(_records()) == RECORDS  # a scan that finds no record would pass on nothing
    assert unread_record_fields() == []


def _defaulted_parameters(tree):
    """(name, position, parameter) of each parameter with a default of each
    non-dunder function and method; position counts from the first argument
    a call writes (after a method's self or cls) and is None for a
    keyword-only parameter."""
    methods = {id(m) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for m in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        positional = [*args.posonlyargs, *args.args][1 if id(node) in methods and not static else 0 :]
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], first):
            yield node.name, i, a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, None, a.arg


def _passes(call: ast.Call, position, parameter: str) -> bool | None:
    """True if the call gives the parameter, False if it omits it, None if
    ``*args`` or ``**kwargs`` may carry it: that counts as giving, not omitting."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return None
    if any(k.arg == parameter for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def options() -> dict:
    """``module.function(parameter)`` of each defaulted parameter ->
    (whether a call passes it, whether a call omits it)."""
    calls: dict = {}
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, position, parameter in _defaulted_parameters(ast.parse(path.read_text(), str(path))):
            seen = {_passes(c, position, parameter) for c in calls.get(name, ())}
            out[f"{path.stem}.{name}({parameter})"] = (True in seen or None in seen, False in seen)
    return out


def test_every_option_is_set_by_a_caller():
    found = options()
    assert "finite_n.compute_moments(alpha)" in found  # a scan that finds no option would pass on nothing
    assert [label for label, (passed, _) in found.items() if not passed] == []
    assert [label for label, (_, omitted) in found.items() if not omitted] == []
