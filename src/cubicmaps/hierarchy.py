"""String-equation hierarchy for the recurrence-coefficient expansion.

In the scaled variable w = s*u^2 the large-N expansions of the squared and
linear recurrence coefficients are governed by a pair of coupled string
equations.  The leading orders obey

    6*g0 + 3*b0^2 = b0,        g0*(1 - 6*b0) = w,

equivalently the cubic 72*g0^3 - g0^2 + w^2 = 0, and each correction pair
(g_{2k}, b_{2k}) solves a 2x2 linear system whose right-hand side collects
Taylor-shifted derivatives of lower orders with weights 1/((2j)! 2^(2j)).
The determinant D(w) = 1 - 108*g0(w) is a unit in the series ring, so the
whole hierarchy stays exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .numbers import binomial, gamma_ratio
from .series import VAR_U2, VAR_W, TruncatedSeries, assert_same_series, monomial


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


def compute_g0_series(horizon: int) -> TruncatedSeries:
    """Leading series from the closed form, certified by its cubic.

    H = g0/w satisfies 72 w H^3 - H^2 + 1 = 0.  The w^n coefficient of that
    residual is -2 H_0 H_n plus terms in H_0..H_(n-1), so with H_0 pinned to 1
    a residual that is zero from w^0 through w^(horizon-1) fixes every
    coefficient; the pin excludes the other branch, (-1)^j c_j, which zeroes
    the residual too.  A failed certificate is a hard failure, not a warning.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    closed = TruncatedSeries(VAR_W, 1, tuple(g0_coefficient(j) for j in range(1, horizon + 1)))
    if closed.coefficient(1) != 1:  # offset is the valuation, so this also pins offset 1
        raise ArithmeticError(f"leading series certificate: g0 = {closed!r} does not start at 1*w^1")
    H = closed.shift(-1)
    h2 = H * H
    residual = (h2 * H).shift(1) * 72 - h2 + 1
    if not residual.is_zero() or residual.known_max != horizon - 1:
        raise ArithmeticError(
            f"leading series certificate: 72 w H^3 - H^2 + 1 = {residual!r}, "
            f"expected 0 through w^{horizon - 1}"
        )
    return closed


def _taylor_weight(j: int) -> Fraction:
    return Fraction(1, factorial(2 * j) * 4**j)


def _even_derivatives(g: Sequence[TruncatedSeries], b: Sequence[TruncatedSeries]):
    """d2j(which, m, j): the memoised (2j)-th derivative of g[m] or b[m] (which = "g" or "b").

    The memo reads g and b at call time, so one memo serves lists that grow.
    """
    derivs: dict[tuple[str, int, int], TruncatedSeries] = {}

    def d2j(which: str, m: int, j: int) -> TruncatedSeries:
        if j == 0:
            return (g if which == "g" else b)[m]
        key = (which, m, j)
        if key not in derivs:
            derivs[key] = d2j(which, m, j - 1).differentiate().differentiate()
        return derivs[key]

    return d2j


def solve_order_k(
    g_lower: Sequence[TruncatedSeries],
    b_lower: Sequence[TruncatedSeries],
    det: TruncatedSeries,
    t_lower: Sequence[TruncatedSeries],
    d2j,
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """Next correction pair from all lower orders, by Cramer on the 2x2 system.

        6*g_k + (6*b0 - 1)*b_k = R1 = -6*sum g_m^(2j)/((2j)! 2^2j) - 3*sum b_m*b_m'
        (1 - 6*b0)*g_k - 6*g0*b_k = R2 = 6*sum g_m*b_m'^(2j)/((2j)! 2^2j)

    with every sum over indices summing to k, all strictly below k.  R2 is
    assembled from the completed anti-diagonal sums

        T_n = sum_(m+j=n) b_m^(2j)/((2j)! 2^2j),   t_lower = (T_0, ..., T_(k-1)),

    as R2 = 6 (g0 U_k + sum_(m=1..k-1) g_m T_(k-m)) with U_k = T_k - b_k, so
    an order costs k products.  d2j is the build's derivative memo over
    g_lower and b_lower (``_even_derivatives``).  Returns (g_k, b_k, T_k).
    """
    k = len(g_lower)
    if k < 1 or len(b_lower) != k or len(t_lower) != k:
        raise ValueError("need matching g, b and T prefixes of length k >= 1")
    g0, b0 = g_lower[0], b_lower[0]

    r1 = d2j("g", 0, k) * _taylor_weight(k)
    for m in range(1, k):
        r1 = r1 + d2j("g", m, k - m) * _taylor_weight(k - m)
    r1 = r1 * (-6)
    for m in range(1, (k + 1) // 2):  # pairs m < m' with m + m' = k, each standing for two ordered pairs
        r1 = r1 - b_lower[m] * b_lower[k - m] * 6
    if k % 2 == 0:
        r1 = r1 - b_lower[k // 2] * b_lower[k // 2] * 3
    uk = d2j("b", 0, k) * _taylor_weight(k)
    for m in range(1, k):
        uk = uk + d2j("b", m, k - m) * _taylor_weight(k - m)
    r2 = g0 * uk
    for m in range(1, k):
        r2 = r2 + g_lower[m] * t_lower[k - m]
    r2 = r2 * 6

    gk = (r1 * (g0 * -6) - (b0 * 6 - 1) * r2) / det
    bk = (r2 * 6 - (1 - b0 * 6) * r1) / det
    return gk, bk, uk + bk


@dataclass(frozen=True)
class StringHierarchy:
    max_k: int
    horizon: int
    g_hat: tuple  # TruncatedSeries per correction order k = 0..max_k
    b_hat: tuple
    det: TruncatedSeries  # D(w) = 1 - 108 g0, the system determinant


def build_hierarchy(max_k: int, horizon: int) -> StringHierarchy:
    """Solve the hierarchy through correction order max_k, exact to the w-horizon.

    The leading series is padded by 2*max_k orders internally because each
    Taylor-shift derivative slides the known window down by one exponent.
    Derivatives are taken once per build and the anti-diagonal sums T_n are
    carried from order to order, so order k costs O(k) series products.
    """
    if max_k < 0 or horizon < 1:
        raise ValueError("need max_k >= 0 and horizon >= 1")
    pad = horizon + 2 * max_k + 2
    g0 = compute_g0_series(pad)
    w1 = monomial(VAR_W, 1, 1, pad)
    b0 = (g0 - w1) / (g0 * 6)
    det = 1 - g0 * 108
    assert_same_series((1 - b0 * 6) ** 2 - g0 * 36, det)

    g = [g0]
    b = [b0]
    t = [b0]
    d2j = _even_derivatives(g, b)
    for _ in range(max_k):
        gk, bk, tk = solve_order_k(g, b, det, t, d2j)
        g.append(gk)
        b.append(bk)
        t.append(tk)

    return StringHierarchy(
        max_k=max_k,
        horizon=horizon,
        g_hat=tuple(s.truncate_to(horizon) for s in g),
        b_hat=tuple(s.truncate_to(horizon) for s in b),
        det=det.truncate_to(horizon),
    )


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


def g2_closed_form(horizon: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """First-correction pair from the resolved rational forms.

    g2 = 162 g0 (5 - 324 g0) / (1 - 108 g0)^4,  b2 = 54 w / (g0 (1 - 108 g0)^4).
    """
    g0 = compute_g0_series(horizon + 2)
    d4 = (1 - g0 * 108) ** 4
    g2 = (g0 * 162) * (5 - g0 * 324) / d4
    b2 = monomial(VAR_W, 54, 1, horizon + 2) / (g0 * d4)
    return g2.truncate_to(horizon), b2.truncate_to(horizon)


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
