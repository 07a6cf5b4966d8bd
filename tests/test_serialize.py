import copy
import csv
import io
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from cubicmaps.cli import main
from cubicmaps.numbers import BETA, Qbeta
from cubicmaps.precision import BigFloat
from cubicmaps.serialize import (
    ExactLeaf,
    ExactRecords,
    _exact,
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
    assert encode_value(complex(0.5, -0.25)) == {"kind": "approx", "re": "0.5", "im": "-0.25", "dps": 17}
    s = monomial(VAR_W, Fraction(5, 3), 2, 4)
    assert encode_value([s]) == [encode_series(s)]
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
    csv_text = dump_csv(["x", "y"], [[1, -3], [2, 189]])
    assert csv_text == "x,y\n1,-3\n2,189\n"


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
    rows = [[0, -1, 10**400, -(10**400), 189, -3, 0], [], [7]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert dump_csv(header, rows) == buf.getvalue()


@pytest.mark.parametrize("bad", [
    ",", '"', "a\nb", "a\rb", "", 0.5, None, mp.mpf(1), BigFloat(mp.mpf(1), 20), Fraction(1, 2), True,
])
def test_dump_csv_refuses_cells_it_cannot_write_unquoted(bad):
    # rows hold ints only: a str, even one csv.writer would not quote, raises
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


# -- exact leaves and record tables written in one piece ----------------------

_exact_leaves = st.one_of(
    st.fractions(max_denominator=10**20).map(encode_fraction),
    st.builds(_exact, st.one_of(st.just(0), st.integers(-10**30, 10**30)), st.integers(1, 10**12)),
    st.lists(st.fractions(max_denominator=10**6), min_size=4, max_size=4).map(lambda c: encode_qbeta(Qbeta(c))),
    st.builds(lambda nums, den, offset: encode_series(from_numerators(VAR_W, offset, nums, den)), _nums, _dens,
              st.integers(-4, 4)),
)


def _nested(depth):
    inner = st.one_of(_exact_leaves, _leaves)
    for _ in range(depth):
        inner = st.one_of(inner, st.lists(inner, max_size=3), st.dictionaries(_text, inner, max_size=3))
    return inner


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(_nested))
def test_exact_leaves_match_json_dumps_at_every_depth(payload):
    assert dump_json(payload) == _reference(payload)


def test_exact_leaf_is_its_plain_dict():
    leaf = encode_fraction(Fraction(-7, 3))
    plain = {"kind": "exact", "num": "-7", "den": "3"}
    assert type(leaf) is ExactLeaf and leaf == plain and list(leaf) == list(plain)
    for twin in (pickle.loads(pickle.dumps(leaf)), copy.deepcopy(leaf), copy.copy(leaf)):
        assert type(twin) is ExactLeaf and twin == plain
        assert dump_json({"x": [twin]}) == dump_json({"x": [plain]}) == _reference({"x": [plain]})
    assert pickle.loads(pickle.dumps(leaf, protocol=0)) == plain
    back = json.loads(dump_json({"q": leaf, "s": encode_series(from_numerators(VAR_W, 0, [0, -2], 4))}))
    assert back == {"q": plain, "s": {"variable": "w", "offset": 1, "known_max": 1,
                                      "coefficients": [{"kind": "exact", "num": "-1", "den": "2"}]}}
    assert all(type(v) is dict for v in (back["q"], *back["s"]["coefficients"]))
    assert _exact(0, 12) == {"kind": "exact", "num": "0", "den": "1"}


@pytest.mark.parametrize("bad", [[encode_fraction(Fraction(1, 2)), 0.5], {"q": encode_fraction(3), "f": Fraction(1, 2)},
                                 ExactRecords(("j",), ("f",), [(1, Fraction(1, 2), 1)])])
def test_untagged_values_beside_exact_leaves_raise(bad):
    with pytest.raises(TypeError):
        dump_json(bad)


_keys = st.text(st.sampled_from('ab%"\\\u00e9 '), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(_keys, min_size=1, max_size=5, unique=True), st.integers(0, 3), st.integers(0, 4),
       st.data())
def test_exact_records_match_their_dicts(keys, n_int, n_rows, data):
    # records of int fields then exact fields, against json.dumps of the dicts
    # they stand for, nested one and two levels deep
    n_int = min(n_int, len(keys))
    ints = st.integers(-10**30, 10**30)
    rows = []
    for _ in range(n_rows):
        row = [data.draw(ints) for _ in range(n_int)]
        for _ in keys[n_int:]:
            q = data.draw(st.fractions(max_denominator=10**9))
            row += [q.numerator, q.denominator]
        rows.append(tuple(row))
    records = ExactRecords(tuple(keys[:n_int]), tuple(keys[n_int:]), rows)
    dicts = []
    for row in rows:
        d = dict(zip(keys[:n_int], row))
        for i, k in enumerate(keys[n_int:]):
            d[k] = {"kind": "exact", "num": str(row[n_int + 2 * i]), "den": str(row[n_int + 2 * i + 1])}
        dicts.append(d)
    assert dump_json(records) == _reference(dicts)
    assert dump_json({"n": 1, "rows": records}) == _reference({"n": 1, "rows": dicts})
    assert dump_json([{"rows": records}]) == _reference([{"rows": dicts}])
