"""Deterministic JSON and CSV encoding of the package's numeric types.

Every number carries a tag: exact rationals travel as decimal-string
numerator/denominator pairs, algebraic values as four rational components
on the beta-power basis, floats as a value string plus the decimal
precision they were computed at.  Nothing exact is ever converted to a
float on the way out.  Key order is fixed at construction, so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from mpmath import mp, workdps

from .numbers import Qbeta
from .precision import BigFloat

# beta is the positive real fourth root in all numeric shadows
QBETA_RELATION = "beta^4 = 12"


def encode_fraction(q: Fraction) -> dict:
    q = Fraction(q)
    return {"kind": "exact", "num": str(q.numerator), "den": str(q.denominator)}


def encode_qbeta(x: Qbeta) -> dict:
    """Exact algebraic value as components on 1, beta, beta^2, beta^3."""
    return {
        "kind": "exact-algebraic",
        "relation": QBETA_RELATION,
        "components": [encode_fraction(c) for c in x.c],
    }


def _mp_str(v, dps: int) -> str:
    with workdps(dps):
        return mp.nstr(v, dps)


def encode_bigfloat(x: BigFloat) -> dict:
    v = x.value
    if hasattr(v, "imag") and v.imag != 0:
        return {
            "kind": "approx",
            "re": _mp_str(v.real, x.dps),
            "im": _mp_str(v.imag, x.dps),
            "dps": x.dps,
        }
    real = v.real if hasattr(v, "real") else v
    return {"kind": "approx", "value": _mp_str(real, x.dps), "dps": x.dps}


def encode_float(x: float, dps: int = 17) -> dict:
    # repr round-trips, so the string is exact for the double it came from
    return {"kind": "approx", "value": repr(float(x)), "dps": dps}


def encode_value(x):
    """Tag a single numeric leaf; ints pass through as native JSON."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return encode_fraction(x)
    if isinstance(x, Qbeta):
        return encode_qbeta(x)
    if isinstance(x, BigFloat):
        return encode_bigfloat(x)
    if isinstance(x, float):
        return encode_float(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        return [encode_value(v) for v in x]
    if isinstance(x, dict):
        return {str(k): encode_value(v) for k, v in x.items()}
    if isinstance(x, (mp.mpf, mp.mpc)):
        raise TypeError("raw mpmath values need a BigFloat wrapper to record their precision")
    raise TypeError(f"no JSON encoding for {type(x).__name__}")


def encode_series(s) -> dict:
    """Truncated power series: variable tag, lowest exponent, dense coefficients."""
    return {
        "variable": s.var,
        "offset": s.offset,
        "known_max": s.known_max,
        "coefficients": [encode_value(c) for c in s.coeffs],
    }


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def dump_csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
