"""Deterministic JSON and CSV encoding of the package's numeric types.

Every number carries a tag: exact rationals travel as decimal-string
numerator/denominator pairs (a series or Q(beta) element's from its integer
numerators, one gcd each), algebraic values as four rational components on
the beta-power basis, floats as a value string plus the decimal precision
they were computed at.  Nothing exact is ever converted to a float on the
way out.  Key order is fixed at construction, so identical inputs produce
identical bytes.  ``encode_value`` is the one tagger the CLI calls: a
record goes through it as ``_asdict()``, so its field order is its key order.

An exact leaf is an ``ExactLeaf``, a dict that ``dump_json`` writes in one
piece from one template per indent (``_leaf_template``).  A series' or Q(beta)
element's leaves are an ``ExactRun`` of its integer numerators, and ``expand``'s
table an ``ExactRecords`` of rows of ints; ``dump_json`` writes either in one
join of that template, with no dict or Fraction per leaf or row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .numbers import Qbeta
from .precision import BigFloat
from .series import TruncatedSeries

QBETA_RELATION = "beta^4 = 12"  # beta is its positive real root
FLOAT_DPS = 17  # the dps tag of a double: 17 significant digits round-trip it


class ExactLeaf(dict):
    """``{"kind": "exact", "num": ..., "den": ...}`` with decimal-string num and
    den, equal to that plain dict; ``dump_json`` writes it from num and den alone."""

    __slots__ = ()


class ExactRun:
    """nums[i]/den (den > 0) as a JSON array of exact leaves in lowest terms; it reads
    and compares as that list of ``ExactLeaf`` dicts, and ``dump_json`` writes it in one join."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple, den: int) -> None:
        self.nums, self.den = nums, den

    def __iter__(self):
        return map(_exact, self.nums, [self.den] * len(self.nums))

    def __getitem__(self, i):
        return list(self)[i]

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, tuple, ExactRun)) else NotImplemented


class ExactRecords:
    """A JSON array of records with the same keys: ``int_keys`` with int
    values, then ``exact_keys`` with exact values.  Each row is a tuple of
    ints: one value per int key, then num and den (den > 0, in lowest terms)
    per exact key.  ``dump_json`` writes it with one template at its indent."""

    __slots__ = ("int_keys", "exact_keys", "rows")

    def __init__(self, int_keys: tuple, exact_keys: tuple, rows: list) -> None:
        self.int_keys, self.exact_keys, self.rows = int_keys, exact_keys, rows


@cache
def _leaf_template(indent: str) -> str:
    """The text of an exact leaf at ``indent``, with %s for num and den."""
    inner = "\n" + indent + "  "
    return "{" + inner + '"kind": "exact",' + inner + '"num": "%s",' + inner + '"den": "%s"\n' + indent + "}"


def _exact(num: int, den: int) -> ExactLeaf:
    """num/den (den > 0) in lowest terms."""
    g = gcd(num, den)
    return ExactLeaf(kind="exact", num=str(num // g), den=str(den // g))


def encode_fraction(q: Fraction | int) -> ExactLeaf:
    return ExactLeaf(kind="exact", num=str(q.numerator), den=str(q.denominator))


def encode_qbeta(x: Qbeta) -> dict:
    """Exact algebraic value as components on 1, beta, beta^2, beta^3."""
    return {
        "kind": "exact-algebraic",
        "relation": QBETA_RELATION,
        "components": ExactRun(x.numerators, x.denominator),
    }


def encode_bigfloat(x: BigFloat) -> dict:
    v = x.value
    # an mpmath number carries its context, so printing it imports nothing;
    # nstr(mpf, dps) is to_str(mpf._mpf_, dps), with its fixed/exponent
    # thresholds from dps, not from the context's precision
    nstr = v.context.nstr
    if hasattr(v, "imag") and v.imag != 0:
        return {
            "kind": "approx",
            "re": nstr(v.real, x.dps),
            "im": nstr(v.imag, x.dps),
            "dps": x.dps,
        }
    real = v.real if hasattr(v, "real") else v
    return {"kind": "approx", "value": nstr(real, x.dps), "dps": x.dps}


def encode_float(x: float) -> dict:
    # repr round-trips, so the string is exact for the double it came from
    return {"kind": "approx", "value": repr(float(x)), "dps": FLOAT_DPS}


def encode_value(x):
    """Tag a value and everything in it: the one tagger the CLI calls.

    Ints, bools, strs and None pass through as native JSON; a Fraction,
    Qbeta, BigFloat, float, complex or TruncatedSeries becomes its tagged
    leaf; lists, tuples and dicts are tagged item by item, in order.  A
    record goes in as ``record._asdict()``, so its field order is its key
    order; a whole NamedTuple raises TypeError, as an untagged mpmath number does.
    """
    if x is None or isinstance(x, (int, str)):  # bool is an int
        return x
    if isinstance(x, Fraction):
        return encode_fraction(x)
    if isinstance(x, Qbeta):
        return encode_qbeta(x)
    if isinstance(x, BigFloat):
        return encode_bigfloat(x)
    if isinstance(x, float):
        return encode_float(x)
    if isinstance(x, complex):
        return {"kind": "approx", "re": repr(x.real), "im": repr(x.imag), "dps": FLOAT_DPS}
    if isinstance(x, TruncatedSeries):
        return encode_series(x)
    if type(x) in (list, tuple):  # a NamedTuple record is not a list of values
        return [encode_value(v) for v in x]
    if isinstance(x, dict):
        return {str(k): encode_value(v) for k, v in x.items()}
    from mpmath import mpc, mpf  # on the way to a TypeError only, so no leaf pays the import

    if isinstance(x, (mpf, mpc)):
        raise TypeError("raw mpmath values need a BigFloat wrapper to record their precision")
    raise TypeError(f"no JSON encoding for {type(x).__name__}")


def encode_series(s) -> dict:
    """Truncated power series: variable tag, lowest exponent, dense coefficients."""
    return {
        "variable": s.var,
        "offset": s.offset,
        "known_max": s.known_max,
        "coefficients": ExactRun(s.numerators, s.denominator),
    }


def _write_records(x: ExactRecords, indent: str) -> str:
    if not {int}.issuperset(map(type, chain.from_iterable(x.rows))):
        raise TypeError("ExactRecords rows hold ints only")
    if not x.rows:
        return "[]"
    field = indent + "    "
    keys = (*x.int_keys, *x.exact_keys)
    slots = ["%d"] * len(x.int_keys) + [_leaf_template(field)] * len(x.exact_keys)
    # a literal % in a key must not read as a slot of the template
    row = ",\n".join([field + _quote(k).replace("%", "%%") + ": " + v for k, v in zip(keys, slots)])
    row = indent + "  {\n" + row + "\n" + indent + "  }"
    return "[\n" + ",\n".join([row % r for r in x.rows]) + "\n" + indent + "]"


def _write(x, indent: str, out: list) -> None:
    if type(x) is ExactLeaf:
        out.append(_leaf_template(indent) % (x["num"], x["den"]))
    elif isinstance(x, str):
        out.append(_quote(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        inner, sep = indent + "  ", "{\n"
        for k, v in x.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
            out.append(sep + inner + _quote(k) + ": ")
            _write(v, inner, out)
            sep = ",\n"
        out.append("\n" + indent + "}" if x else "{}")
    elif type(x) in (list, tuple):  # a NamedTuple record is a tuple, but no JSON array
        inner, sep = indent + "  ", "[\n"
        for v in x:
            out.append(sep + inner)
            _write(v, inner, out)
            sep = ",\n"
        out.append("\n" + indent + "]" if x else "[]")
    elif type(x) is ExactRun:  # one gcd and one template per leaf
        inner, den = indent + "  ", x.den
        leaf = _leaf_template(inner)
        leaves = [leaf % (n // g, den // g) for n in x.nums for g in (gcd(n, den),)]
        out.append("[\n" + inner + (",\n" + inner).join(leaves) + "\n" + indent + "]" if leaves else "[]")
    elif type(x) is ExactRecords:
        out.append(_write_records(x, indent))
    else:
        raise TypeError(f"no JSON encoding for {type(x).__name__}; numbers need a tag before dumping")


def dump_json(payload) -> str:
    """``json.dumps(payload, indent=2, ensure_ascii=True) + "\\n"`` in one pass; only
    dicts with str keys, plain lists and tuples, str, int, bool and None, so an
    untagged float or a record such as ``BigFloat`` raises TypeError.  An
    ``ExactRun`` or ``ExactRecords`` value is written as the array of dicts it stands for."""
    out: list = []
    _write(payload, "", out)
    out.append("\n")
    return "".join(out)


def dump_csv(header: list, rows: list) -> str:
    """What ``csv.writer(buf, lineterminator="\\n")`` writes for a header of
    plain names (no comma, quote or line break) and rows of ints.  Any other
    row cell, a bool or a Fraction included, raises TypeError."""
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        raise TypeError("CSV rows hold ints only")
    return "\n".join([",".join(header), *[",".join(map(str, row)) for row in rows], ""])
