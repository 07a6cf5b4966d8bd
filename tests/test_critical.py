"""Critical-point amplitudes: recursion and its singular-system check, count
amplitudes, Painleve I, and the Neville fits of ``oracles.critical_leading``
against the recursion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from cubicmaps import critical
from cubicmaps.acceptance import run_criterion
from cubicmaps.critical import (
    B0_AT_CRITICAL,
    G0_AT_CRITICAL,
    CriticalConstants,
    _amplitude_ratio,
    _sqrt_6pi,
    compute_K,
    painleve_check,
    run_C_recursion,
)
from cubicmaps.hierarchy import build_hierarchy
from cubicmaps.numbers import BETA, SQRT3, W_CRITICAL, Qbeta
from oracles import (
    _neville_to_zero,
    amplitude_exact,
    compute_K_fractions,
    critical_amplitudes,
    critical_leading,
    grades,
    qbeta_value,
)


@pytest.fixture(scope="module")
def consts() -> CriticalConstants:
    return run_C_recursion(10)


@pytest.fixture(scope="module")
def h60():
    return build_hierarchy(3, 60)


def test_published_amplitudes(consts):
    assert consts.C[0] == -BETA / 18
    assert consts.C[1] == Qbeta.rational(Fraction(1, 5184))
    assert consts.C[2] == Qbeta((0, 0, 0, Fraction(49, 35831808)))
    assert consts.D[0] == -(BETA**3) / 6
    for k in range(consts.G + 1):
        assert consts.D[k] == 6 * SQRT3 * consts.C[k]
    assert G0_AT_CRITICAL == Fraction(1, 108)
    assert B0_AT_CRITICAL == (6 - BETA**2) / 36
    # numeric shadow of D_0 = -2^(1/2) 3^(-1/4)
    with workdps(30):
        target = -mp.sqrt(2) / mp.root(3, 4)
        assert abs(qbeta_value(consts.D[0]) - target) < mp.mpf(10) ** -28


def test_integer_route_matches_qbeta_recursion():
    # the integer route lifted into the field against the recursion run in
    # Q(beta), element by element; signs against the numeric values
    c, d = critical_amplitudes(60)
    consts = run_C_recursion(60)
    assert list(consts.C) == c
    assert list(consts.D) == d
    with workdps(30):
        assert list(consts.signs) == [1 if qbeta_value(x) > 0 else -1 for x in c]


def test_integer_step_values():
    # Y_1 = 2 and Y_2 = 98 give the published C_2 = 1/5184 and C_4; every
    # Y_k past Y_0 is even, which the half in the step relies on
    y = [-1]
    for _ in range(60):
        y.append(critical._next_Y(y, critical._pair_sum(y, len(y))))
    assert y[1:5] == [2, 98, 19600, 8824802]
    assert all(v % 2 == 0 for v in y[1:])


def test_singular_system_check_detects_a_wrong_C(monkeypatch):
    # the integer step off by 2 at one order: the Cramer solution of the
    # order-k singular system, built from the D data, must disagree
    original = critical._next_Y

    def perturbed(y, pair):
        return original(y, pair) + (2 if len(y) == 3 else 0)

    monkeypatch.setattr(critical, "_next_Y", perturbed)
    run_C_recursion(2)
    with pytest.raises(ArithmeticError, match="C at order 3, singular system"):
        run_C_recursion(5)


def test_signs_and_grades(consts):
    assert consts.signs[0] == -1
    assert all(s == 1 for s in consts.signs[1:])
    for k in range(consts.G + 1):
        assert grades(consts.C[k]) <= {(1 - k) % 4}


def test_critical_point_identities():
    assert (W_CRITICAL * W_CRITICAL).rational_part() == Fraction(1, 34992)
    assert Fraction(1, 34992) == Fraction(1, 3 * 108**2)
    g0 = Fraction(1, 108)
    assert 72 * g0**3 - g0**2 + Fraction(1, 34992) == 0
    assert B0_AT_CRITICAL * 6 * g0 + 0 == (g0 - W_CRITICAL) * 1  # b0 = (g0 - w_c)/(6 g0)


def _ratio_of(y: int, g: int) -> tuple[Fraction, int]:
    """``_amplitude_ratio`` in the oracle's shape (q, n): K = q (6 pi)^(n/2)."""
    num, den = _amplitude_ratio(y, g)
    return Fraction(num, den), -1 if g % 2 == 0 else 0


def test_count_amplitude_reduction(consts):
    # symbolic reduction pinned for low genus; rational whenever g is odd
    assert _ratio_of(consts.Y[0], 0) == (Fraction(1), -1)
    assert _ratio_of(consts.Y[1], 1) == (Fraction(1, 48), 0)
    assert _ratio_of(consts.Y[2], 2) == (Fraction(7, 1440), -1)
    assert _ratio_of(consts.Y[3], 3) == (Fraction(245, 5308416), 0)
    assert _ratio_of(consts.Y[4], 4) == (Fraction(37079, 5337446400), -1)
    # oracle: evaluate the defining ratio 6*3^(1/4) C_2g / (Gamma((5g-1)/2) u_c^g)
    # for every genus the benchmark's critical jobs print, and past them; the
    # ratio is in lowest terms over a positive denominator, as the Gamma route's
    deep = run_C_recursion(60)
    for g in range(61):
        num, den = _amplitude_ratio(deep.Y[g], g)
        q, n = amplitude_exact(deep.Y[g], g)
        assert (num, den) == (q.numerator, q.denominator) and n == (-1 if g % 2 == 0 else 0)
    with workdps(50):
        u_c = mp.root(3, 4) / 18
        for g in range(41):
            direct = 6 * mp.root(3, 4) * qbeta_value(deep.C[g])
            direct /= mp.gamma(mp.mpf(5 * g - 1) / 2) * u_c**g
            q, n = _ratio_of(deep.Y[g], g)
            folded = mp.mpf(q.numerator) / q.denominator
            if n == -1:
                folded /= mp.sqrt(6 * mp.pi)
            assert abs(direct - folded) < abs(direct) * mp.mpf(10) ** -45


def test_compute_K_matches_the_fraction_route_bit_for_bit():
    # every genus through 40 at each precision the benchmark and the docs use,
    # each precision visited twice in a row after another one, so a sqrt(6 pi)
    # kept from one working precision and read at another changes some mpf
    deep = run_C_recursion(40)
    _sqrt_6pi.cache_clear()
    for precision in (15, 40, 100, 40, 15, 100):
        for g in range(41):
            got = compute_K(deep, g, precision)
            want = compute_K_fractions(deep.Y[g], g, precision)
            assert got.dps == want.dps == precision
            assert got.value._mpf_ == want.value._mpf_, (g, precision)


def test_count_amplitude_values(consts):
    with workdps(45):
        targets = {
            0: 1 / mp.sqrt(6 * mp.pi),
            1: mp.mpf(1) / 48,
            2: 7 / (1440 * mp.sqrt(6 * mp.pi)),
        }
        for g, target in targets.items():
            got = compute_K(consts, g, precision=40)
            assert got.dps == 40
            assert abs(got.value - target) < abs(target) * mp.mpf(10) ** -39
    # the closed forms K_0, K_2, K_4 = q (6 pi)^p
    closed = {0: (Fraction(1), Fraction(-1, 2)), 1: (Fraction(1, 48), 0), 2: (Fraction(7, 1440), Fraction(-1, 2))}
    for g, (q, p) in closed.items():
        qq, n = _ratio_of(consts.Y[g], g)
        assert (qq, Fraction(n, 2)) == (q, p)
    with pytest.raises(ValueError):
        compute_K(consts, consts.G + 1, 40)


def test_fit_leading_order(consts, h60):
    fit = critical_leading(h60, 0, 60)
    assert fit.exponent == Fraction(1, 2)
    with workdps(45):
        exact = qbeta_value(consts.C[0])
        assert abs(fit.amplitude.value - exact) < abs(exact) / 100
        assert abs(fit.radius.value - mp.sqrt(3) / 324) < mp.mpf(10) ** -8
        assert float(fit.radius_error.value) < 1e-6


def test_fit_order_one(consts, h60):
    fit = critical_leading(h60, 1, 60)
    assert fit.exponent == Fraction(-2)
    with workdps(45):
        exact = mp.mpf(1) / 5184
        assert abs(fit.amplitude.value - exact) < exact / 100


def test_fit_determinant(h60):
    fit = critical_leading(h60, 0, 60, determinant=True)
    with workdps(45):
        target = qbeta_value(6 * BETA)
        assert abs(fit.amplitude.value - target) < target / 100


def test_fit_matches_recursion_within_reported_error(consts, h60):
    for k in range(4):
        fit = critical_leading(h60, k, 60)
        with workdps(45):
            exact = qbeta_value(consts.C[k])
            assert abs(fit.amplitude.value - exact) < fit.amplitude_error.value
            assert abs(fit.radius.value - mp.sqrt(3) / 324) < fit.radius_error.value


def test_fit_rejections(h60):
    with pytest.raises(ValueError):
        critical_leading(h60, 1, 60, determinant=True)
    with pytest.raises(ValueError):
        critical_leading(h60, 4, 60)
    with pytest.raises(ValueError):
        critical_leading(h60, 0, 61)
    with pytest.raises(ValueError):
        critical_leading(h60, 0, 30)


def test_painleve_report(consts):
    rep = painleve_check(consts, 9)
    assert rep.q == Qbeta.rational(-648)
    assert rep.orders_verified == 8
    assert rep.q_over_inv_8mu == Qbeta((0, 0, 0, Fraction(-3, 2)))
    # q C_0 = 1/(8 mu) = 36 beta, the reading the standard-form rescaling needs
    assert rep.q * consts.C[0] == 36 * BETA


def test_painleve_standard_form_detects_a_wrong_rescaling(monkeypatch):
    # lambda c^3 = 3 beta/4; a wrong constant breaks (lambda c^3) q C_0^3 = 1
    monkeypatch.setattr(critical, "_LAMBDA_C3", 3 * BETA / 5)
    with pytest.raises(ArithmeticError, match="standard form"):
        painleve_check(run_C_recursion(9), 8)
    result = run_criterion("painleve")
    assert not result.passed and "ArithmeticError" in result.detail


def test_painleve_preconditions(consts):
    with pytest.raises(ValueError):
        painleve_check(consts, 0)
    with pytest.raises(ValueError):
        painleve_check(run_C_recursion(3), 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6))
def test_extrapolation_recovers_polynomials(coeffs):
    # Neville at x = 0 is exact for polynomial data on >= degree+1 nodes
    with workdps(60):
        xs = [1 / mp.sqrt(j) for j in range(20, 32)]
        ys = [sum(c * x**i for i, c in enumerate(coeffs)) for x in xs]
        value, err = _neville_to_zero(xs, ys)
        assert abs(value - coeffs[0]) < mp.mpf(10) ** -40
        assert err < mp.mpf(10) ** -38
