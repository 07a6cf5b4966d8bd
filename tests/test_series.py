from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmaps.series import (
    VAR_U2,
    VAR_V,
    VAR_W,
    BeyondHorizonError,
    TruncatedSeries,
    even_taylor_sum,
    from_numerators,
    product_sum,
    zero_series,
)
from oracles import assert_same_series, binomial, differentiate, from_coefficients, monomial

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=8)


def w_series(coeffs, offset=0):
    return TruncatedSeries(VAR_W, offset, tuple(coeffs))


series_strategy = st.builds(
    w_series,
    st.lists(rationals, min_size=1, max_size=7),
    st.integers(min_value=-3, max_value=4),
)


def test_mul_drops_unknown_tail():
    # (1 + q + q^2/2) * (1 - q) tracked through q^2
    a = w_series([1, 1, Fraction(1, 2)])
    b = w_series([1, -1, 0])
    prod = a * b
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 0
    assert prod.coefficient(2) == Fraction(-1, 2)
    assert prod.known_max == 2
    with pytest.raises(BeyondHorizonError):
        prod.coefficient(3)


def test_known_window_mul_rule():
    a = w_series([1, 2, 3], offset=1)  # known through w^3
    b = w_series([5, 7], offset=0)  # known through w^1
    prod = a * b
    # unknown b-coefficients first pollute exponent (1) + (2) = 3
    assert prod.offset == 1
    assert prod.known_max == 2
    assert prod.coefficient(1) == 5
    assert prod.coefficient(2) == 17


def test_add_aligns_offsets():
    a = w_series([1, 2], offset=2)
    b = w_series([3, 0, 5], offset=0)
    s = a + b
    assert s.coefficient(0) == 3
    assert s.coefficient(1) == 0
    assert s.coefficient(2) == 6
    assert s.known_max == 2  # min of the two known windows


def test_add_window_is_min_of_known():
    a = w_series([1, 2, 3, 4])  # known to 3
    b = w_series([1, 1])  # known to 1
    assert (a + b).known_max == 1


def test_divide_shifts_offset():
    num = monomial(VAR_W, 54, 1, 12)
    den = w_series([1, 36, 3240], offset=1)  # valuation 1
    q = num / den
    assert q.offset == 0
    assert q.coefficient(0) == 54
    assert q.coefficient(1) == 54 * -36


def test_divide_then_multiply_roundtrip():
    a = w_series([2, 5, Fraction(7, 3), 1], offset=1)
    b = w_series([1, -4, 6, -2], offset=2)
    q = b / a
    assert_same_series(q * a, b)


def test_differentiate_slides_window():
    s = w_series([1, 36, 3240], offset=1)  # known to w^3
    d = differentiate(s)
    assert d.coefficient(0) == 1
    assert d.coefficient(1) == 72
    assert d.coefficient(2) == 3 * 3240
    assert d.known_max == 2


def test_var_mixing_rejected():
    a = w_series([1, 2])
    for var in (VAR_U2, VAR_V):
        b = TruncatedSeries(var, 0, (Fraction(1),))
        for op in (lambda: a + b, lambda: b - a, lambda: a * b, lambda: b / a):
            with pytest.raises(ValueError):
                op()


def test_retag_and_shift():
    g = w_series([1, 36], offset=1)
    f = g.dilate(1, VAR_U2).shift(-1)
    assert f.var == VAR_U2
    assert f.coefficient(0) == 1
    assert f.coefficient(1) == 36


@given(series_strategy, st.integers(min_value=1, max_value=30))
def test_dilation_matches_reference(s, c):
    # coefficient e times c^e at either offset sign; only an integer c >= 1 is a scale
    d = s.dilate(c, VAR_V)
    assert d.var == VAR_V and d.offset == s.offset and d.known_max == s.known_max
    assert d.coeffs == tuple(x * Fraction(c) ** (s.offset + i) for i, x in enumerate(s.coeffs))
    for bad in (0, -c, Fraction(1, 18), Fraction(c), True):
        with pytest.raises(ValueError):
            s.dilate(bad, VAR_V)


def test_from_coefficients_and_accessors():
    s = from_coefficients(VAR_W, {1: 6, 3: 324}, known_max=4)
    assert s.coefficient(2) == 0
    assert s.coefficient(4) == 0
    assert s.valuation() == 1
    assert s.offset == 1 and s.coeffs == (6, 0, 324, 0)


def test_scalar_mixing():
    s = w_series([1, 5])
    t = 1 - s * 6
    assert t.coefficient(0) == -5
    assert t.coefficient(1) == -30
    u = monomial(VAR_W, 2, 0, 1) / w_series([1, 3])
    assert u.coefficient(0) == 2
    assert u.coefficient(1) == -6


@settings(max_examples=120, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    assert_same_series(a * b, b * a)
    assert_same_series((a + b) + c, a + (b + c))
    assert_same_series((a + b) * c, a * c + b * c)


@settings(max_examples=80, deadline=None)
@given(series_strategy, series_strategy)
def test_division_roundtrip_property(a, b):
    if b.is_zero():
        return
    q = a / b
    assert_same_series(q * b, a)


@settings(max_examples=80, deadline=None)
@given(series_strategy)
def test_derivative_of_product_rule(a):
    b = a * a
    assert_same_series(differentiate(b), differentiate(a) * a * 2)


# -- integer kernel against a Fraction reference ----------------------------
# The references below read only the public offset/coeffs of their inputs and
# compute with Fractions, exponent by exponent, sharing nothing with series.py.


def _ref_terms(s):
    return s.offset, list(s.coeffs)


def _ref_mul(a, b):
    (oa, ca), (ob, cb) = _ref_terms(a), _ref_terms(b)
    n = min(len(ca), len(cb))
    out = []
    for k in range(n):
        acc = Fraction(0)
        for i in range(k + 1):
            acc += ca[i] * cb[k - i]
        out.append(acc)
    return oa + ob, out


def _ref_div(a, b):
    (oa, ca), (ob, cb) = _ref_terms(a), _ref_terms(b)
    v = next(i for i, c in enumerate(cb) if c)
    cb = cb[v:]
    n = min(len(ca), len(cb))
    out = []
    for i in range(n):
        acc = ca[i]
        for j in range(1, i + 1):
            acc -= cb[j] * out[i - j]
        out.append(acc / cb[0])
    return oa - (ob + v), out


def _ref_add(a, b):
    (oa, ca), (ob, cb) = _ref_terms(a), _ref_terms(b)
    lo = min(oa, ob)
    hi = min(oa + len(ca), ob + len(cb)) - 1

    def at(o, c, e):
        return c[e - o] if o <= e < o + len(c) else Fraction(0)

    return lo, [at(oa, ca, e) + at(ob, cb, e) for e in range(lo, hi + 1)]


def _assert_matches(series, ref):
    offset, coeffs = ref
    assert series.known_max == offset + len(coeffs) - 1
    for i, c in enumerate(coeffs):
        assert series.coefficient(offset + i) == c
    assert all(type(c) is Fraction for c in series.coeffs)
    rebuilt = TruncatedSeries(series.var, offset, tuple(coeffs))
    assert series == rebuilt


exact_coeffs = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
)
kernel_series = st.builds(
    lambda lead, body, offset: w_series([0] * lead + body, offset),
    st.integers(min_value=0, max_value=3),  # leading zeros, stripped on construction
    st.lists(st.one_of(st.just(0), exact_coeffs), min_size=1, max_size=12),
    st.integers(min_value=-5, max_value=5),
)


@settings(max_examples=150, deadline=None)
@given(kernel_series, kernel_series)
def test_mul_and_add_match_reference(a, b):
    _assert_matches(a * b, _ref_mul(a, b))
    _assert_matches(a * a, _ref_mul(a, a))  # the square kernel
    _assert_matches(a + b, _ref_add(a, b))
    _assert_matches(a - b, _ref_add(a, -b))


@settings(max_examples=150, deadline=None)
@given(kernel_series, kernel_series)
def test_div_matches_reference(a, b):
    if b.is_zero():
        with pytest.raises(ValueError):
            _ = a / b
        return
    _assert_matches(a / b, _ref_div(a, b))


@settings(max_examples=60, deadline=None)
@given(kernel_series, st.integers(min_value=1, max_value=4), st.lists(exact_coeffs, min_size=1, max_size=10))
def test_div_by_positive_valuation_matches_reference(a, v, body):
    if not body[0]:
        body[0] = 1
    b = w_series(body, offset=v)
    q = a / b
    assert q.offset == a.offset - v
    _assert_matches(q, _ref_div(a, b))


@settings(max_examples=120, deadline=None)
@given(kernel_series, exact_coeffs)
def test_scalar_ops_match_reference(s, c):
    c = Fraction(c)
    offset, coeffs = _ref_terms(s)
    _assert_matches(s * c, (offset, [x * c for x in coeffs]))
    _assert_matches(c * s, (offset, [x * c for x in coeffs]))
    if c:
        _assert_matches(s * (1 / c), (offset, [x / c for x in coeffs]))  # a series scales by * only
    if s.known_max < 0:
        with pytest.raises(BeyondHorizonError):
            _ = s + c
    else:
        lo = min(offset, 0)
        plus = [s.coefficient(e) for e in range(lo, s.known_max + 1)]
        minus = [-x for x in plus]
        plus[-lo] += c
        minus[-lo] += c
        _assert_matches(s + c, (lo, plus))
        _assert_matches(c - s, (lo, minus))


@settings(max_examples=120, deadline=None)
@given(kernel_series)
def test_calculus_matches_reference(s):
    offset, coeffs = _ref_terms(s)
    _assert_matches(differentiate(s), (offset - 1, [c * (offset + i) for i, c in enumerate(coeffs)]))


zero_kernel_series = st.builds(lambda n, o: w_series([0] * n, o), st.integers(1, 4), st.integers(-5, 5))


@settings(max_examples=120, deadline=None)
@given(st.one_of(kernel_series, zero_kernel_series), st.integers(min_value=0, max_value=6))
def test_even_taylor_term_matches_repeated_differentiation(s, j):
    # a one-term sum against 2j derivatives times 81^j/(2j)!, and against
    # the generalized binomial on Fractions, so both the comb and the 81^j weight show
    d = s
    for _ in range(2 * j):
        d = differentiate(d)
    t = even_taylor_sum([(s, j)])
    assert t == d * Fraction(81**j, factorial(2 * j))
    offset, coeffs = _ref_terms(s)
    _assert_matches(t, (offset - 2 * j, [c * binomial(offset + i, 2 * j) * 81**j for i, c in enumerate(coeffs)]))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.one_of(kernel_series, zero_kernel_series), st.integers(0, 5)), min_size=1, max_size=5))
def test_even_taylor_sum_matches_single_terms(terms):
    # one pass over one denominator against the sum of one-term sums: the
    # same values in the same window, the lowest shifted offset through the
    # lowest shifted known_max
    expected = even_taylor_sum(terms[:1])
    for term in terms[1:]:
        expected = expected + even_taylor_sum([term])
    got = even_taylor_sum(terms)
    assert got == expected and got.known_max == min(s.known_max - 2 * j for s, j in terms)


numerator_series = st.builds(
    lambda nums, den, offset: from_numerators(VAR_W, offset, nums, den),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
    st.one_of(st.just(1), st.integers(1, 10**4)),
    st.integers(-6, 6),
)


@settings(max_examples=120, deadline=None)
@given(numerator_series, numerator_series)
def test_direct_sum_matches_zero_order_taylor_sum(a, b):
    # `+` sums the numerators in one aligned pass; even_taylor_sum with j = 0
    # reaches the same series by its binomial weights
    total = even_taylor_sum(((a, 0), (b, 0)))
    for got, expected in ((a + b, total), (b + a, total), (a - b, even_taylor_sum(((a, 0), (-b, 0))))):
        assert (got.offset, got.numerators, got.denominator) == (expected.offset, expected.numerators, expected.denominator)
    with pytest.raises(ValueError, match="mixed series variables 'w' and 'u2'"):
        a + b.dilate(1, VAR_U2)


def _twin(s):
    # an equal series that is a different object, so a * _twin(a) is no square
    return from_numerators(s.var, s.offset, s.numerators, s.denominator)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(kernel_series, zero_kernel_series), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(-7, 7), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5))
def test_product_sum_matches_chained_products(pool, picks):
    # weighted products summed in one pass against `*` and `+` one at a time,
    # value and window both; picking the same series twice makes a square
    terms = [(c, pool[i % len(pool)], pool[j % len(pool)]) for c, i, j in picks]
    expected = None
    for c, a, b in terms:
        p = a * _twin(b) * c
        expected = p if expected is None else expected + p
    got = product_sum(terms)
    assert got == expected and got.known_max == expected.known_max


def test_product_sum_rejects_mixed_variables():
    a = w_series([1, 2])
    with pytest.raises(ValueError):
        product_sum([(1, a, a), (1, a, a.dilate(1, VAR_U2))])
    with pytest.raises(ValueError):
        even_taylor_sum([(a, 1), (a.dilate(1, VAR_U2), 0)])


def test_zero_series_is_pinned_and_absorbing():
    z = w_series([0, 0, 0], offset=-2)
    assert z.is_zero() and z.offset == z.known_max == 0
    assert z.coeffs == (Fraction(0),)
    a = w_series([3, 1, 4, 1, 5], offset=-1)
    assert (a * z).is_zero() and (a * z).known_max == -1
    assert (z / a).is_zero()
    with pytest.raises(ValueError):
        _ = a / z
    assert (a - a).is_zero() and (a - a).known_max == 3


def test_coeffs_are_fractions_and_equality_is_by_value():
    from_ints = w_series([0, 2, 4, 6], offset=-1)
    from_fractions = w_series([Fraction(1), Fraction(2), Fraction(3)]) * 2
    assert from_ints.offset == 0 and from_ints.coeffs == (2, 4, 6)
    assert all(type(c) is Fraction for c in from_ints.coeffs)
    assert from_ints == from_fractions
    squared = from_ints * from_ints
    assert squared == w_series([4, 16, 40])
    halves = w_series([Fraction(1, 2), Fraction(3, 2)])
    assert halves == w_series([Fraction(2, 4), Fraction(6, 4)])
    assert halves != w_series([Fraction(1, 2), Fraction(3, 2)], offset=1)
    assert halves != halves.dilate(1, VAR_U2)
    assert halves * 2 == w_series([1, 3]) and halves == halves * 1 == halves + 0
    with pytest.raises(AttributeError):
        halves.offset = 3


@given(series_strategy, series_strategy)
def test_coefficient_reads_the_coeffs_window(a, b):
    for s in (a, b, a * b, a - b):
        assert all(type(c) is Fraction for c in s.coeffs)
        for e in range(s.offset - 3, s.known_max + 1):
            want = s.coeffs[e - s.offset] if e >= s.offset else 0
            assert type(s.coefficient(e)) is Fraction and s.coefficient(e) == want
        with pytest.raises(BeyondHorizonError):
            s.coefficient(s.known_max + 1)


def test_non_rational_coefficients_and_scalars_raise_type_error():
    from mpmath import mpf

    from cubicmaps.numbers import BETA, Qbeta

    for bad in (Qbeta.rational(1), BETA, 0.5, mpf(2)):
        with pytest.raises(TypeError):
            w_series([1, bad])
        with pytest.raises(TypeError):
            monomial(VAR_W, bad, 0, 2)
    a = w_series([3, Fraction(1, 2), -7], offset=-1)
    for bad in (Qbeta.rational(2), BETA, 0.5, mpf(2)):
        for op in (lambda: a * bad, lambda: bad * a, lambda: a / bad, lambda: a + bad, lambda: bad - a):
            with pytest.raises(TypeError):
                op()
    assert a * True == a and a * Fraction(1, 2) * 2 == a
    with pytest.raises(TypeError):
        a / Fraction(1, 2)  # a series scales by *, not /


def test_numerators_round_trip():
    s = TruncatedSeries(VAR_U2, 1, (Fraction(1, 2), Fraction(-2, 3), 0))
    assert (s.numerators, s.denominator) == ((3, -4, 0), 6)
    assert from_numerators(VAR_U2, 1, [-9, 12, 0], -18) == s  # reduced, denominator made positive
    assert from_numerators(VAR_U2, 0, [0, 0], 7) == zero_series(VAR_U2, 1)
    with pytest.raises(ValueError):
        from_numerators("x", 0, [1], 1)
    with pytest.raises(ValueError):
        from_numerators(VAR_U2, 0, [], 1)
