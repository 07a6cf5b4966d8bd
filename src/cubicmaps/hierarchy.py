"""String-equation hierarchy for the recurrence-coefficient expansion.

In the scaled variable w = s*u^2 the large-N expansions of the squared and
linear recurrence coefficients are governed by a pair of coupled string
equations.  The leading orders obey

    6*g0 + 3*b0^2 = b0,        g0*(1 - 6*b0) = w,

equivalently the cubic 72*g0^3 - g0^2 + w^2 = 0, and each correction pair
(g_{2k}, b_{2k}) solves a 2x2 linear system whose right-hand side collects
Taylor-shifted derivatives of lower orders with weights 1/((2j)! 2^(2j)).
Eliminating g_{2k} leaves b_{2k} times D(w) = 1 - 108*g0(w), a unit in the
series ring, so the whole hierarchy stays exact rational arithmetic.  It is
solved in v = 18 w, which cancels the 2^(3j) 3^(2j) in g0's w^j coefficient:
H = g0/w is integral, g0 and b0 have denominators 18 and 3, and the Taylor
weights 81^j/(2j)! act as integers, so products run on integers half as long.
18 is the largest scale that keeps g0 over one small denominator (at 72 it
has 269 bits at v^134).  Results are handed out in w.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .series import VAR_V, VAR_W, TruncatedSeries, even_taylor_sum, from_numerators, product_sum


def g0_coefficients(n: int) -> list[int]:
    """h_0..h_(n-1): the v^1..v^n coefficients of g0 times 18, by their term ratio.

    h_(j+2) = 12 (3j+1)(3j+5) h_j / ((j+2)(j+3)) from h_0 = 1 and h_1 = 2 is
    the ratio of g0's w^(j+1) coefficient 72^j Gamma(3j/2+1/2) / (2 Gamma(j+1)
    Gamma(j/2+3/2)), over 18^j, two steps apart.  Every h_j is an integer, so
    the division is exact; ``compute_g0_series``'s certificate checks them all.
    """
    h = [1, 2][:n]
    for j in range(n - 2):
        h.append(12 * (3 * j + 1) * (3 * j + 5) * h[j] // ((j + 2) * (j + 3)))
    return h


def compute_g0_series(horizon: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Leading pair (g0, b0) as v-series: g0 by its term ratio, b0 from the cubic's certificate.

    H = g0/w satisfies 4 v H^3 - H^2 + 1 = 0.  With R = H - 4 v H^2 that
    residual is 1 - H R, whose v^n coefficient is -2 H_0 H_n plus terms in
    H_0..H_(n-1), so with H_0 pinned to 1 a residual that is zero from v^0
    through v^(horizon-1) fixes every coefficient; the pin excludes the other
    branch, -H(-v), which zeroes the residual too.  A failed certificate
    is a hard failure, not a warning.  Once it holds, R = 1/H = w/g0 through
    v^(horizon-1), so b0 = (1 - R)/6 solves g0 (1 - 6 b0) = w with no series
    division.  g0 is known through v^horizon, b0 through v^(horizon-1).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    h = g0_coefficients(horizon)
    H = from_numerators(VAR_V, 0, h, 1)
    if H.coefficient(0) != 1:  # offset is the valuation, so this also pins offset 0
        raise ArithmeticError(f"leading series certificate: H = g0/w = {H!r} does not start at 1*v^0")
    R = H - (H * H).shift(1) * 4
    residual = 1 - H * R
    if not residual.is_zero() or residual.known_max != horizon - 1:
        raise ArithmeticError(
            f"leading series certificate: 1 - H (H - 4 v H^2) = {residual!r}, "
            f"expected 0 through v^{horizon - 1}"
        )
    return from_numerators(VAR_V, 1, h, 18), (1 - R) * Fraction(1, 6)


def solve_order_k(
    g_lower: Sequence[TruncatedSeries],
    b_lower: Sequence[TruncatedSeries],
    det: TruncatedSeries,
    t_lower: Sequence[TruncatedSeries],
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """Next correction pair from all lower orders, by elimination on the 2x2 system in v.

        6*g_k - R*b_k = R1 = -6*sum 81^j g_m^(2j)/(2j)! - 3*sum b_m*b_m'
        R*g_k - 6*g0*b_k = R2 = 6*sum 81^j g_m*b_m'^(2j)/(2j)!

    with R = 1 - 6*b0 and every sum over indices summing to k, all strictly
    below k.  Since R^2 - 36*g0 = det, b_k*det = 6*R2 - R*R1 and then
    6*g_k = R1 + R*b_k.  R2 is assembled from the carried anti-diagonal sums

        T_n = sum_(m+j=n) 81^j b_m^(2j)/(2j)!,   t_lower = (T_0, ..., T_(k-1)),

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


class StringHierarchy(NamedTuple):
    max_k: int
    horizon: int
    g_hat: tuple  # TruncatedSeries per correction order k = 0..max_k
    b_hat: tuple


def build_hierarchy(max_k: int, horizon: int) -> StringHierarchy:
    """Solve the hierarchy in v through correction order max_k; return it in w, exact to the horizon.

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
        g_hat=tuple(s.truncate_to(horizon).dilate(18, VAR_W) for s in g),
        b_hat=tuple(s.truncate_to(horizon).dilate(18, VAR_W) for s in b),
    )
