from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from cubicmaps.numbers import (
    BETA,
    SQRT3,
    W_CRITICAL,
    Qbeta,
    double_factorial,
    gamma_exact,
)
from cubicmaps.precision import agreement_digits
from oracles import binomial, grades, pochhammer, qbeta_value


def test_beta_fourth_power():
    assert BETA**4 == Qbeta.rational(12)
    assert BETA**2 == SQRT3 * 2


def test_critical_point_value():
    # w_c = u_c^2 with u_c = 3^(1/4)/18
    with workdps(60):
        uc = mp.root(3, 4) / 18
        assert agreement_digits(qbeta_value(W_CRITICAL), uc**2) > 55


def test_known_product_component():
    c0 = BETA * Fraction(-1, 18)
    sq = c0 * c0
    assert sq == Qbeta((0, 0, Fraction(1, 324), 0))


def test_inverse_and_division():
    x = Qbeta((Fraction(3, 7), 2, Fraction(-1, 2), 5))
    assert x * x.inverse() == Qbeta.rational(1)
    y = Qbeta((1, 0, 3, 0))
    assert (x / y) * y == x
    with pytest.raises(ZeroDivisionError):
        Qbeta.rational(0).inverse()


def _inverse_by_elimination(x: Qbeta) -> Qbeta:
    # reference: solve x * y = 1 as a 4x4 rational system on the beta-power basis
    basis = [Qbeta(tuple(int(i == j) for j in range(4))) for i in range(4)]
    cols = [(x * e).c for e in basis]
    rows = [[cols[j][i] for j in range(4)] + [Fraction(int(i == 0))] for i in range(4)]
    for col in range(4):
        piv = next(r for r in range(col, 4) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(4):
            if r != col:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return Qbeta(tuple(row[4] for row in rows))


qbeta_elements = st.tuples(*[st.fractions(min_value=-50, max_value=50, max_denominator=12)] * 4).map(Qbeta)


@settings(max_examples=200, deadline=None)
@given(qbeta_elements)
def test_inverse_by_conjugates_matches_elimination(x):
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert x * inv == Qbeta.rational(1)
    assert inv == _inverse_by_elimination(x)


def test_random_products_match_floats():
    rng = random.Random(7)
    with workdps(50):
        for _ in range(1000):
            a = Qbeta(tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4)))
            b = Qbeta(tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4)))
            lhs = qbeta_value(a * b)
            rhs = qbeta_value(a) * qbeta_value(b)
            assert abs(lhs - rhs) <= mp.mpf(10) ** (-40) * max(1, abs(lhs))


def test_grades():
    assert grades(BETA**3) == {3}
    assert grades(BETA**5) == {1}  # beta^4 = 12 reduces the grade mod 4
    assert grades(Qbeta((1, 0, 2, 0))) == {0, 2}


def test_double_factorial():
    assert [double_factorial(n) for n in (-1, 0, 1, 5, 6)] == [1, 1, 1, 15, 48]


def test_gamma_exact_integer_and_half():
    assert gamma_exact(Fraction(5)) == 24
    assert gamma_exact(Fraction(7, 2)) == Fraction(15, 8)  # times sqrt(pi)
    assert gamma_exact(Fraction(-1, 2)) == -2  # times sqrt(pi)
    with pytest.raises(ValueError):
        gamma_exact(Fraction(0))


def test_binomial_half_integer():
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(5, 2) == 10
    assert binomial(Fraction(3, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)


# reference arithmetic on Fraction components: the componentwise loop with the
# beta^4 = 12 fold, and the inverse by conjugates, as the field was first written
def _ref_mul(a, b):
    out = [Fraction(0)] * 4
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 4:
                out[i + j] += x * y
            else:
                out[i + j - 4] += 12 * x * y
    return tuple(out)


def _ref_inverse(x):
    c0, c1, c2, c3 = x
    a = c0 * c0 + 12 * c2 * c2 - 24 * c1 * c3
    b = 2 * c0 * c2 - c1 * c1 - 12 * c3 * c3
    norm = a * a - 12 * b * b
    if not norm:
        raise ZeroDivisionError
    return ((c0 * a - 12 * c2 * b) / norm, (12 * c3 * b - c1 * a) / norm,
            (c2 * a - c0 * b) / norm, (c1 * b - c3 * a) / norm)


def _ref_pow(x, n):
    if n < 0:
        x, n = _ref_inverse(x), -n
    acc = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for _ in range(n):
        acc = _ref_mul(acc, x)
    return acc


def _lift(x):
    return x if isinstance(x, tuple) else (Fraction(x), Fraction(0), Fraction(0), Fraction(0))


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
components = st.tuples(fractions, fractions, fractions, fractions)
scalars = st.integers(-30, 30) | fractions


@settings(max_examples=300, deadline=None)
@given(components, components | scalars, st.integers(-3, 4))
def test_integer_qbeta_matches_fraction_reference(a, other, n):
    x = Qbeta(a)
    y = Qbeta(other) if isinstance(other, tuple) else other
    b = _lift(other)
    assert (x + y).c == tuple(p + q for p, q in zip(a, b))
    assert (y + x).c == (x + y).c
    assert (x - y).c == tuple(p - q for p, q in zip(a, b))
    assert (y - x).c == tuple(q - p for p, q in zip(a, b))
    assert (x * y).c == _ref_mul(a, b) == (y * x).c
    if any(b):
        assert (x / y).c == _ref_mul(a, _ref_inverse(b))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if any(a):
        assert (y / x).c == _ref_mul(b, _ref_inverse(a))
        assert (x**n).c == _ref_pow(a, n)
    elif n < 0:
        with pytest.raises(ZeroDivisionError):
            x**n
    # canonical form: a value computed through any route equals the same
    # value built from its reduced components
    for value, want in ((x + y, tuple(p + q for p, q in zip(a, b))), (x * y, _ref_mul(a, b)), (-x, tuple(-p for p in a))):
        assert value == Qbeta(want)
        assert all(type(v) is Fraction for v in value.c)
    if any(b):
        assert x / y == Qbeta(_ref_mul(a, _ref_inverse(b)))
    if any(a):
        assert x.inverse() == Qbeta(_ref_inverse(a)) and x**n == Qbeta(_ref_pow(a, n))


def test_qbeta_rational_equals_its_fraction():
    # a rational element equals the int or Fraction it stands for, from either
    # side; with __eq__ defined and no __hash__, hashing one raises
    assert Qbeta.rational(Fraction(3, 2)) == Fraction(3, 2) == Qbeta.rational(Fraction(3, 2))
    assert Qbeta.rational(3) == 3 == Qbeta.rational(3) and Qbeta.rational(0) == 0 == Qbeta.rational(0)
    assert Qbeta.rational(Fraction(-5, 7)) != Fraction(5, 7) and BETA / 2 != Fraction(1, 2)
    assert BETA / 2 == Qbeta((0, Fraction(1, 2), 0, 0))
    with pytest.raises(TypeError):
        hash(Qbeta.rational(3))


def test_qbeta_canonical_form_and_value_semantics():
    # one value built over unequal denominators
    x = Qbeta((Fraction(1, 2), Fraction(1, 3), 0, Fraction(-5, 6)))
    y = Qbeta((Fraction(3, 4), 0, Fraction(1, 4), 0)) * Fraction(2, 3) + Qbeta(
        (0, Fraction(2, 6), Fraction(-1, 6), Fraction(-10, 12))
    )
    assert x == y
    z = (BETA**3 - 7 * BETA + Fraction(2, 9)) / 5
    assert (z.numerators, z.denominator) == ((2, -63, 0, 9), 45)
    assert Qbeta((Fraction(6, 4), 0, 0, 0)) == Fraction(3, 2)
    assert Qbeta.rational(7) == 7 and Qbeta.rational(0) == 0
    assert x / -2 == x * Fraction(-1, 2) and Qbeta.rational(-4).inverse() == Fraction(-1, 4)
    assert (BETA**2 / 2 - SQRT3) == 0 and not (BETA**2 / 2 - SQRT3)
    assert all(type(v) is Fraction for v in x.c)
    assert x.c == (Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(-5, 6))
    assert Qbeta((1, "2/3", 0.5, 0)).c == (1, Fraction(2, 3), Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        Qbeta((1, 2, 3))
    for attr in ("c", "_n", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, (0, 0, 0, 0))
    with pytest.raises(AttributeError):
        del x.c
    zero = Qbeta((0, Fraction(0, 5), 0, 0))
    assert zero == Qbeta.rational(0) and not zero
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        x / zero
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        1 / zero
    assert repr(x) == "Qbeta(1/2 + 1/3*b^1 + -5/6*b^3)"
    assert repr(zero) == "Qbeta(0)"
