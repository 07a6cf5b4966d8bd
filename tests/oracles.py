"""Test-only oracles for the series and hierarchy layers.

Each is a second route to a quantity the package computes one way: the
Gamma closed form of the leading series, the residue sum and rational forms
of the first correction (with the generalized binomial they need), direct
substitution into the string equations, the map to the coupling variable,
and coefficientwise series comparison.  The package itself never calls them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from cubicmaps.hierarchy import StringHierarchy, _even_derivatives, _taylor_weight, compute_g0_series
from cubicmaps.numbers import gamma_ratio
from cubicmaps.series import VAR_U2, VAR_W, BeyondHorizonError, TruncatedSeries, monomial


def assert_same_series(a: TruncatedSeries, b: TruncatedSeries, through: int | None = None) -> None:
    """Raise unless a and b agree on the overlap of their windows (or through a given exponent)."""
    if a.var != b.var:
        raise AssertionError(f"variable mismatch {a.var!r} vs {b.var!r}")
    hi = min(a.known_max, b.known_max)
    if through is not None:
        if through > hi:
            raise BeyondHorizonError(f"comparison through {through} exceeds known windows")
        hi = through
    lo = min(a.offset, b.offset)
    for e in range(lo, hi + 1):
        ca, cb = a.coefficient(e), b.coefficient(e)
        if ca != cb:
            raise AssertionError(f"coefficient mismatch at exponent {e}: {ca} != {cb}")


def binomial(a, k: int) -> Fraction:
    """Generalized binomial C(a, k) = a(a-1)...(a-k+1)/k! for rational a."""
    if k < 0:
        return Fraction(0)
    a = Fraction(a)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


def g0_coefficient(j: int) -> Fraction:
    """w^j coefficient of the leading series: Gamma(3j/2-1) 72^(j-1) / (2 Gamma(j) Gamma(j/2+1))."""
    if j < 1:
        raise ValueError("coefficients start at w^1")
    ratio = gamma_ratio(Fraction(3 * j, 2) - 1, Fraction(j, 2) + 1)
    return ratio * 72 ** (j - 1) / (2 * factorial(j - 1))


def g2_coefficient(j: int) -> Fraction:
    """w^j coefficient of the first correction, as the finite residue sum."""
    if j < 1:
        raise ValueError("coefficients start at w^1")
    acc = Fraction(0)
    for m in range(j):
        acc += binomial(Fraction(3 * j, 2) - m - 1, j - m - 1) * (m + 1) * (m + 5) * Fraction(3, 2) ** m
    return 162 * 72 ** (j - 1) * acc


def g2_closed_form(horizon: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """First-correction pair from the resolved rational forms.

    g2 = 162 g0 (5 - 324 g0) / (1 - 108 g0)^4,  b2 = 54 w / (g0 (1 - 108 g0)^4).
    """
    g0, _ = compute_g0_series(horizon + 2)
    d4 = (1 - g0 * 108) ** 4
    g2 = (g0 * 162) * (5 - g0 * 324) / d4
    b2 = monomial(VAR_W, 54, 1, horizon + 2) / (g0 * d4)
    return g2.truncate_to(horizon), b2.truncate_to(horizon)


def hat_equation_residuals(h: StringHierarchy) -> list[tuple[int, TruncatedSeries, TruncatedSeries]]:
    """Substitute the computed hierarchy back into the full string equations.

    Returns (k, residual of the b-equation, residual of the g-equation) for
    every order; all residuals must be zero series through their windows.
    The k = 0 g-equation residual is g0*(1 - 6*b0) - w.
    """
    out = []
    d2j = _even_derivatives(h.g_hat, h.b_hat)
    for k in range(h.max_k + 1):
        eq1 = None
        for m in range(k + 1):
            term = d2j("g", m, k - m) * (6 * _taylor_weight(k - m))
            eq1 = term if eq1 is None else eq1 + term
        for m in range(k + 1):
            eq1 = eq1 + h.b_hat[m] * h.b_hat[k - m] * 3
        eq1 = eq1 - h.b_hat[k]
        eq2 = h.g_hat[k]
        for m in range(k + 1):
            for mp in range(k - m + 1):
                eq2 = eq2 - h.g_hat[m] * d2j("b", mp, k - m - mp) * (6 * _taylor_weight(k - m - mp))
        if k == 0:
            eq2 = eq2 - monomial(VAR_W, 1, 1, h.horizon)
        out.append((k, eq1, eq2))
    return out


def to_u_variable(h: StringHierarchy, k: int, kind: str = "g", s: Fraction = Fraction(1)) -> TruncatedSeries:
    """Map a w-series hierarchy member to the coupling variable at slope s.

    Exponents count powers of u^2: the g-member of order k becomes
    u^(4k-2) g_hat(s u^2), an even function of u; the b-member becomes
    u^(4k-1) b_hat(s u^2), returned as the even cofactor of one overall u.
    """
    if kind not in ("g", "b"):
        raise ValueError("kind must be 'g' or 'b'")
    if not 0 <= k <= h.max_k:
        raise ValueError(f"order {k} outside computed range")
    src = (h.g_hat if kind == "g" else h.b_hat)[k]
    s = Fraction(s)
    if s != 1:
        coeffs = tuple(c * s ** (src.offset + i) for i, c in enumerate(src.coeffs))
        src = TruncatedSeries(VAR_W, src.offset, coeffs)
    return src.retag(VAR_U2).shift(2 * k - 1)
