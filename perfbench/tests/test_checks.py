import json
from fractions import Fraction
from math import factorial

from checks import Checker, Triangulations, critical_amplitude

# F^(0), F^(2), F^(4) coefficients of u^2 .. u^10, as the paper tabulates them
F0 = (Fraction(6), Fraction(216), Fraction(13608), Fraction(1119744), Fraction(540416448, 5))
F2 = (Fraction(3, 2), Fraction(189), Fraction(26892), Fraction(4076568), Fraction(3213210384, 5))
F4 = (Fraction(0), Fraction(0), Fraction(8505, 2), Fraction(2217618), Fraction(3905028468, 5))


def test_goulden_jackson_reproduces_frozen_series():
    gj = Triangulations()
    for g, frozen in enumerate((F0, F2, F4)):
        got = tuple(Fraction(gj.count(g, j), factorial(2 * j)) for j in range(1, 6))
        assert got == frozen


def test_goulden_jackson_small_counts():
    gj = Triangulations()
    assert gj.count(0, 1) == 12
    assert gj.count(1, 1) == 3
    # connected pairings at p = 6 vertices, per genus, from the census
    assert [gj.count(g, 3) for g in range(3)] == [9797760, 19362240, 3061800]


def test_critical_amplitudes_from_closed_form_constants():
    assert critical_amplitude(0) == (0, Fraction(-1, 18), 0, 0)
    assert critical_amplitude(1) == (Fraction(1, 5184), 0, 0, 0)
    assert critical_amplitude(2) == (0, 0, 0, Fraction(49, 35831808))


def _expand_json(g, rows):
    enc = lambda q: {"kind": "exact", "num": str(q.numerator), "den": str(q.denominator)}
    payload = {"genus": g, "max_j": len(rows), "rows": [
        {"g": g, "j": j, "f": enc(c * factorial(2 * j)), "F_coeff": enc(c)} for j, c in enumerate(rows, 1)]}
    return json.dumps(payload, indent=2) + "\n"


def test_expand_check_accepts_right_and_rejects_wrong_counts():
    checker = Checker()
    argv = ["expand", "--genus", "1", "--max-j", "5"]
    assert checker.check(argv, _expand_json(1, F2)) == []
    wrong = F2[:3] + (F2[3] + 1,) + F2[4:]
    assert checker.check(argv, _expand_json(1, wrong))


def test_oracle_check():
    checker = Checker()
    argv = ["oracle", "--vertices", "4", "--workers", "1"]
    out = {"p": 4, "total": 10395, "connected": {"0": 5184, "1": 4536, "2": 0}, "disconnected": 675,
           "engine": "pure", "workers": 1, "elapsed_ms": 80}
    assert checker.check(argv, json.dumps(out)) == []
    out["connected"]["1"] = 4535
    assert checker.check(argv, json.dumps(out))


def test_unparseable_output_is_a_failure_not_a_crash():
    assert Checker().check(["hierarchy", "--max-k", "1", "--horizon", "3"], "{}")
