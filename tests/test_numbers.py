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
    binomial,
    double_factorial,
    gamma_exact,
    gamma_ratio,
    pochhammer,
)
from cubicmaps.precision import agreement_digits


def test_beta_fourth_power():
    assert BETA**4 == Qbeta.rational(12)
    assert BETA**2 == SQRT3 * 2


def test_critical_point_value():
    # w_c = u_c^2 with u_c = 3^(1/4)/18
    with workdps(60):
        uc = mp.root(3, 4) / 18
        assert agreement_digits(W_CRITICAL.evaluate(uc), uc**2) > 55


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
            lhs = (a * b).evaluate(mp.mpf(1))
            rhs = a.evaluate(mp.mpf(1)) * b.evaluate(mp.mpf(1))
            assert abs(lhs - rhs) <= mp.mpf(10) ** (-40) * max(1, abs(lhs))


def test_grades():
    assert (BETA**3).grades() == {3}
    assert (BETA**5).grades() == {1}  # beta^4 = 12 reduces the grade mod 4
    assert Qbeta((1, 0, 2, 0)).grades() == {0, 2}


def test_double_factorial():
    assert [double_factorial(n) for n in (-1, 0, 1, 5, 6)] == [1, 1, 1, 15, 48]


def test_gamma_exact_integer_and_half():
    assert gamma_exact(Fraction(5)) == (24, False)
    r, half = gamma_exact(Fraction(7, 2))  # 15/8 sqrt(pi)
    assert half and r == Fraction(15, 8)
    r, half = gamma_exact(Fraction(-1, 2))  # -2 sqrt(pi)
    assert half and r == Fraction(-2)
    with pytest.raises(ValueError):
        gamma_exact(Fraction(0))


def test_gamma_ratio():
    assert gamma_ratio(Fraction(9, 2), Fraction(5, 2)) == Fraction(35, 4)
    assert gamma_ratio(Fraction(5, 2), Fraction(9, 2)) == Fraction(4, 35)
    assert gamma_ratio(Fraction(7), Fraction(4)) == 120
    # consistency with the explicit values
    a, b = Fraction(11, 2), Fraction(3, 2)
    ra, ha = gamma_exact(a)
    rb, hb = gamma_exact(b)
    assert ha == hb and gamma_ratio(a, b) == ra / rb


def test_binomial_half_integer():
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(5, 2) == 10
    assert binomial(Fraction(3, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
