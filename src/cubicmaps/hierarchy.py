"""String-equation hierarchy for the recurrence-coefficient expansion.

In the scaled variable w = s*u^2 the large-N expansions of the squared and
linear recurrence coefficients are governed by a pair of coupled string
equations.  The leading orders obey

    6*g0 + 3*b0^2 = b0,        g0*(1 - 6*b0) = w,

equivalently the cubic 72*g0^3 - g0^2 + w^2 = 0, and each correction pair
(g_{2k}, b_{2k}) solves a 2x2 linear system whose right-hand side collects
Taylor-shifted derivatives of lower orders with weights 1/((2j)! 2^(2j)).
Eliminating g_{2k} leaves b_{2k} times D(w) = 1 - 108*g0(w), a unit in the
series ring, so the whole hierarchy stays exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .series import VAR_W, TruncatedSeries, even_taylor_sum, from_numerators, product_sum


def g0_coefficients(n: int) -> list[int]:
    """c_1..c_n, the w^j coefficients of the leading series g0, by their term ratio.

    c_(j+2) = 3888 (3j-2)(3j+2) c_j / ((j+1)(j+2)) from c_1 = 1 and c_2 = 36,
    the ratio of Gamma(3j/2-1) 72^(j-1) / (2 Gamma(j) Gamma(j/2+1)) two steps
    apart.  Every c_j is an integer, so the division is exact; the cubic's
    certificate in ``compute_g0_series`` checks every value anyway.
    """
    c = [1, 36][:n]
    for j in range(1, n - 1):
        c.append(3888 * (3 * j - 2) * (3 * j + 2) * c[j - 1] // ((j + 1) * (j + 2)))
    return c


def compute_g0_series(horizon: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Leading pair (g0, b0): g0 by its term ratio, b0 from the cubic's certificate.

    H = g0/w satisfies 72 w H^3 - H^2 + 1 = 0.  With R = H - 72 w H^2 that
    residual is 1 - H R, whose w^n coefficient is -2 H_0 H_n plus terms in
    H_0..H_(n-1), so with H_0 pinned to 1 a residual that is zero from w^0
    through w^(horizon-1) fixes every coefficient; the pin excludes the other
    branch, (-1)^j c_j, which zeroes the residual too.  A failed certificate
    is a hard failure, not a warning.  Once it holds, R = 1/H = w/g0 through
    w^(horizon-1), so b0 = (1 - R)/6 solves g0 (1 - 6 b0) = w with no series
    division.  g0 is known through w^horizon, b0 through w^(horizon-1).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    g0 = from_numerators(VAR_W, 1, g0_coefficients(horizon), 1)
    if g0.coefficient(1) != 1:  # offset is the valuation, so this also pins offset 1
        raise ArithmeticError(f"leading series certificate: g0 = {g0!r} does not start at 1*w^1")
    H = g0.shift(-1)
    R = H - (H * H).shift(1) * 72
    residual = 1 - H * R
    if not residual.is_zero() or residual.known_max != horizon - 1:
        raise ArithmeticError(
            f"leading series certificate: 1 - H (H - 72 w H^2) = {residual!r}, "
            f"expected 0 through w^{horizon - 1}"
        )
    return g0, (1 - R) * Fraction(1, 6)


def solve_order_k(
    g_lower: Sequence[TruncatedSeries],
    b_lower: Sequence[TruncatedSeries],
    det: TruncatedSeries,
    t_lower: Sequence[TruncatedSeries],
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """Next correction pair from all lower orders, by elimination on the 2x2 system.

        6*g_k - R*b_k = R1 = -6*sum g_m^(2j)/((2j)! 2^2j) - 3*sum b_m*b_m'
        R*g_k - 6*g0*b_k = R2 = 6*sum g_m*b_m'^(2j)/((2j)! 2^2j)

    with R = 1 - 6*b0 and every sum over indices summing to k, all strictly
    below k.  Since R^2 - 36*g0 = det, b_k*det = 6*R2 - R*R1 and then
    6*g_k = R1 + R*b_k.  R2 is assembled from the carried anti-diagonal sums

        T_n = sum_(m+j=n) b_m^(2j)/((2j)! 2^2j),   t_lower = (T_0, ..., T_(k-1)),

    as R2 = 6 (g0 U_k + sum_(m=1..k-1) g_m T_(k-m)) with U_k = T_k - b_k.  Each
    anti-diagonal is one ``even_taylor_sum`` or ``product_sum``; beside them an
    order costs one division and the products R*R1 and R*b_k.  Returns (g_k, b_k, T_k).
    """
    k = len(g_lower)
    if k < 1 or len(b_lower) != k or len(t_lower) != k:
        raise ValueError("need matching g, b and T prefixes of length k >= 1")
    g0, b0 = g_lower[0], b_lower[0]
    r = 1 - b0 * 6

    r1 = even_taylor_sum((g_lower[m], k - m) for m in range(k)) * -6
    if k > 1:  # pairs m < m' with m + m' = k stand for two ordered pairs
        r1 = r1 + product_sum((-6 if 2 * m < k else -3, b_lower[m], b_lower[k - m]) for m in range(1, k // 2 + 1))
    uk = even_taylor_sum((b_lower[m], k - m) for m in range(k))
    bk = product_sum([(36, g0, uk), *((36, g_lower[m], t_lower[k - m]) for m in range(1, k)), (-1, r, r1)]) / det
    gk = (r1 + r * bk) * Fraction(1, 6)
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

    Order k slides the known windows of the leading pair down by 2k exponents
    (the Taylor term s^(2k)), so the leading series is padded by 2*max_k
    exponents, and by one at max_k = 0, where b0, known one exponent short of
    g0, is itself an output.  The leading pair comes from
    ``compute_g0_series``: g0 by its term ratio, certified by the cubic's
    residual, and b0 = (1 - R)/6 from that certificate, with no division.
    Each order divides once, by det; the anti-diagonal sums T_n are carried.
    """
    if max_k < 0 or horizon < 1:
        raise ValueError("need max_k >= 0 and horizon >= 1")
    pad = horizon + max(2 * max_k, 1)
    g0, b0 = compute_g0_series(pad)
    det = 1 - g0 * 108

    g = [g0]
    b = [b0]
    t = [b0]
    for _ in range(max_k):
        gk, bk, tk = solve_order_k(g, b, det, t)
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
