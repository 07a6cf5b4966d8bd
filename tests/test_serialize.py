import json
from fractions import Fraction

import pytest
from mpmath import mp, workdps

from cubicmaps.numbers import BETA
from cubicmaps.precision import BigFloat
from cubicmaps.serialize import (
    dump_csv,
    dump_json,
    encode_bigfloat,
    encode_fraction,
    encode_qbeta,
    encode_series,
    encode_value,
)
from cubicmaps.series import VAR_W, monomial


def test_fraction_tags():
    assert encode_fraction(Fraction(3, 2)) == {"kind": "exact", "num": "3", "den": "2"}
    assert encode_fraction(Fraction(-189)) == {"kind": "exact", "num": "-189", "den": "1"}


def test_qbeta_components():
    enc = encode_qbeta(-BETA / 18)
    assert enc["kind"] == "exact-algebraic"
    assert enc["relation"] == "beta^4 = 12"
    assert [c["num"] for c in enc["components"]] == ["0", "-1", "0", "0"]
    assert enc["components"][1]["den"] == "18"


def test_bigfloat_real_and_complex():
    with workdps(30):
        real = encode_bigfloat(BigFloat(mp.mpf(2) / 3, 30))
        assert real["kind"] == "approx" and real["dps"] == 30
        assert real["value"].startswith("0.6666666666")
        flat = encode_bigfloat(BigFloat(mp.mpc(1.5, 0), 30))
        assert "value" in flat and "im" not in flat
        full = encode_bigfloat(BigFloat(mp.mpc(1, -2), 30))
        assert full["re"] == "1.0" and full["im"] == "-2.0"


def test_value_dispatch():
    out = encode_value({"n": 3, "ok": True, "q": Fraction(1, 5), "tags": ("a", None)})
    assert out["n"] == 3 and out["ok"] is True
    assert out["q"]["den"] == "5"
    assert out["tags"] == ["a", None]
    assert encode_value(0.5) == {"kind": "approx", "value": "0.5", "dps": 17}
    with pytest.raises(TypeError):
        encode_value(mp.mpf(1))  # precision tag required
    with pytest.raises(TypeError):
        encode_value(object())


def test_series_encoding():
    s = monomial(VAR_W, Fraction(5, 3), 2, 4)
    enc = encode_series(s)
    assert enc["variable"] == "w"
    assert enc["offset"] == 2 and enc["known_max"] == 4
    assert enc["coefficients"][0] == {"kind": "exact", "num": "5", "den": "3"}


def test_dump_shapes():
    text = dump_json({"a": 1})
    assert text.endswith("}\n")
    assert json.loads(text) == {"a": 1}
    csv_text = dump_csv(["x", "y"], [[1, Fraction(3, 2)], [2, Fraction(189)]])
    assert csv_text == "x,y\n1,3/2\n2,189\n"
