"""Deterministic JSON and CSV encoding of the package's numeric types.

Every number carries a tag: exact rationals travel as decimal-string
numerator/denominator pairs (a series or Q(beta) element's from its integer
numerators, one gcd each), algebraic values as four rational components on
the beta-power basis, floats as a value string plus the decimal precision
they were computed at.  Nothing exact is ever converted to a float on the
way out.  Key order is fixed at construction, so identical inputs produce
identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .numbers import Qbeta
from .precision import BigFloat

QBETA_RELATION = "beta^4 = 12"  # beta is its positive real root
FLOAT_DPS = 17  # the dps tag of a double: 17 significant digits round-trip it
_CSV_QUOTED = frozenset(',"\r\n')  # csv.writer quotes a cell holding one (\r on some Pythons)


def _exact(num: int, den: int) -> dict:
    """num/den (den > 0) in lowest terms."""
    g = gcd(num, den)
    return {"kind": "exact", "num": str(num // g), "den": str(den // g)}


def encode_fraction(q: Fraction | int) -> dict:
    return {"kind": "exact", "num": str(q.numerator), "den": str(q.denominator)}


def encode_qbeta(x: Qbeta) -> dict:
    """Exact algebraic value as components on 1, beta, beta^2, beta^3."""
    return {
        "kind": "exact-algebraic",
        "relation": QBETA_RELATION,
        "components": [_exact(n, x.denominator) for n in x.numerators],
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
    """Tag a single numeric leaf; ints pass through as native JSON."""
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
        "coefficients": [_exact(n, s.denominator) for n in s.numerators],
    }


def _write(x, indent: str, out: list) -> None:
    if isinstance(x, str):
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
    else:
        raise TypeError(f"no JSON encoding for {type(x).__name__}; numbers need a tag before dumping")


def dump_json(payload) -> str:
    """``json.dumps(payload, indent=2, ensure_ascii=True) + "\\n"`` in one pass; only
    dicts with str keys, plain lists and tuples, str, int, bool and None, so an
    untagged float or a record such as ``BigFloat`` raises TypeError."""
    out: list = []
    _write(payload, "", out)
    out.append("\n")
    return "".join(out)


def dump_csv(header: list, rows: list) -> str:
    """What ``csv.writer(buf, lineterminator="\\n")`` writes for the header and
    rows, for cells that need no quoting: ints, Fractions (as ``num/den``), and
    strs without a comma, quote or line break that are not a row's only cell
    while empty.  Any other cell raises TypeError rather than be written
    differently."""
    lines = []
    for row in (header, *rows):
        for cell in row:
            if isinstance(cell, str):
                if _CSV_QUOTED.intersection(cell) or (cell == "" and len(row) == 1):
                    raise TypeError(f"CSV cell {cell!r} would need quoting")
            elif not isinstance(cell, (int, Fraction)):
                raise TypeError(f"no CSV encoding for {type(cell).__name__}")
        lines.append(",".join(map(str, row)))
    lines.append("")
    return "\n".join(lines)
