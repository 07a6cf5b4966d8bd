import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from cubicmaps.cli import main
from cubicmaps.numbers import BETA, Qbeta
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
from cubicmaps.series import VAR_U2, VAR_W, from_numerators
from cubicmaps.wick import PairingCensus, census
from oracles import monomial


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


# -- the writer against json.dumps ------------------------------------------

_chars = st.one_of(st.characters(), st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600'))
_text = st.text(_chars, max_size=8)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**400, max_value=10**400),
    _text,
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=25,
)


def _reference(x) -> str:
    return json.dumps(x, indent=2, ensure_ascii=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_dump_json_matches_json_dumps(payload):
    assert dump_json(payload) == _reference(payload)


def test_dump_json_empty_and_nested_containers():
    for payload in ({}, [], (), {"a": {}, "b": [], "c": [{}, [[]], ()]}, [None, True, False, 0, -1, "\u00e9"]):
        assert dump_json(payload) == _reference(payload)


@pytest.mark.parametrize("bad", [0.5, mp.mpf(1), {1: "int key"}, object(), [1, {"x": float("nan")}], Fraction(1, 2)])
def test_dump_json_refuses_untagged_values(bad):
    with pytest.raises(TypeError):
        dump_json(bad)


def test_dump_json_refuses_records():
    # a NamedTuple record is a tuple, but it must be tagged field by field, not dumped as an array;
    # the last two hold only plain JSON values, so nothing else in them raises
    for record in (census(2), BigFloat(mp.mpf(1), 20), BigFloat(3, 20), PairingCensus(2, 15, {}, 0, 0)):
        with pytest.raises(TypeError):
            dump_json(record)
        with pytest.raises(TypeError):
            dump_json({"nested": [record]})
    with pytest.raises(TypeError):
        encode_value(census(2))


def test_dump_csv_is_what_csv_writer_prints():
    header = ["g", "j", "", " spaced ", "tab\there", "it's", "#"]
    rows = [[0, -1, 10**400, Fraction(-3, 2), Fraction(189), "x", ""], [], [7]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert dump_csv(header, rows) == buf.getvalue()


@pytest.mark.parametrize("bad", [",", '"', "a\nb", "a\rb", "", 0.5, None, mp.mpf(1), BigFloat(mp.mpf(1), 20)])
def test_dump_csv_refuses_cells_it_cannot_write_unquoted(bad):
    # "" alone in its row is the one empty cell csv.writer quotes
    with pytest.raises(TypeError):
        dump_csv(["x"], [[bad]])


@pytest.mark.parametrize("argv", [
    ("hierarchy", "--max-k", "3", "--horizon", "6"),
    ("critical", "--max-genus", "3"),
    ("expand", "--genus", "1", "--max-j", "4", "--format", "json"),
    ("equilibrium", "--u", "1/20"),
    ("validate", "--N", "2", "--u", "1/16", "--precision", "30"),
    ("oracle", "--vertices", "2"),
])
def test_cli_json_is_what_json_dumps_prints(capsys, argv):
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == "" and out == _reference(json.loads(out))


def test_cli_error_json_is_what_json_dumps_prints(capsys):
    assert main(["hierarchy", "--max-k", "\u00e9\"\\", "--horizon", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == _reference(json.loads(err))


# -- exact leaves from integer numerators -----------------------------------


def _fraction_leaf(q: Fraction) -> dict:
    return {"kind": "exact", "num": str(q.numerator), "den": str(q.denominator)}


_nums = st.lists(st.one_of(st.just(0), st.integers(min_value=-10**40, max_value=10**40)), min_size=1, max_size=10)
_dens = st.one_of(st.just(1), st.integers(min_value=1, max_value=10**30))


@settings(max_examples=200, deadline=None)
@given(_nums, _dens, st.integers(min_value=-4, max_value=4))
def test_series_leaves_match_fraction_leaves(nums, den, offset):
    s = from_numerators(VAR_W, offset, nums, den)
    enc = encode_series(s)
    assert enc == {
        "variable": "w",
        "offset": s.offset,
        "known_max": s.known_max,
        "coefficients": [_fraction_leaf(c) for c in s.coeffs],
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**12)), min_size=4, max_size=4))
def test_qbeta_leaves_match_fraction_leaves(components):
    x = Qbeta(components)
    assert encode_qbeta(x)["components"] == [_fraction_leaf(c) for c in x.c]


def test_leaf_edge_cases():
    assert encode_series(from_numerators(VAR_U2, 0, [0, 0], 7))["coefficients"] == [_fraction_leaf(Fraction(0))]
    enc = encode_series(from_numerators(VAR_W, 0, [6, -4, 0, 3], 12))["coefficients"]
    assert enc == [_fraction_leaf(Fraction(n, 12)) for n in (6, -4, 0, 3)]
    assert encode_qbeta(Qbeta((0, 0, 0, 0)))["components"] == [_fraction_leaf(Fraction(0))] * 4
    assert encode_qbeta(Qbeta((-3, 0, 5, 0)))["components"][0] == {"kind": "exact", "num": "-3", "den": "1"}
    assert encode_fraction(-189) == encode_fraction(Fraction(-189))
