"""String-equation hierarchy for the recurrence-coefficient expansion.

In the scaled variable w = s*u^2 the large-N expansions of the squared and
linear recurrence coefficients are governed by a pair of coupled string
equations.  The leading orders obey

    6*g0 + 3*b0^2 = b0,        g0*(1 - 6*b0) = w,

equivalently the cubic 72*g0^3 - g0^2 + w^2 = 0, and each correction pair
(g_k, b_k) of order k, ``StringHierarchy.g_hat[k]`` and ``b_hat[k]``, solves
a 2x2 linear system whose right-hand side collects Taylor-shifted
derivatives of lower orders with weights 1/((2j)! 2^(2j)).
Eliminating g_k leaves b_k times D(w) = 1 - 108*g0(w), a unit in the
series ring, so the whole hierarchy stays exact rational arithmetic.  The
leading pair is certified by the cubic's first-order form, a linear check
on the square of H = g0/w.  The first order (g_1, b_1) has a closed form:
reduced modulo the cubic, each is a polynomial of degree 2 in H over
(1 - (w/w_c)^2)^2, built in linear time from H and H^2 off the certified
pair.  Every higher order is solved by the same elimination.
Everything is solved in v = 18 w, which cancels the 2^(3j) 3^(2j) in g0's
w^j coefficient: H is integral, g0 and b0 have denominators 18 and 3, and
the Taylor weights 81^j/(2j)! act as integers, so products run on integers
half as long.  18 is the largest scale that keeps g0 over one small
denominator (at 72 it has 269 bits at v^134).  Results are handed out in w.
At a point, ``slice_root`` solves the slice for the one branch root a caller
asks for, past w_c too, and ``slice_b0`` and ``order_1_at`` read b0 and
order 1 off it; ``equilibrium`` and ``finite_n`` take the slice from there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
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

    H = g0/w satisfies 4 v H^3 - H^2 + 1 = 0.  With P = 1 - H^2 + 4 v H^3,
    P' = -2 H (H' (1 - 6 v H) - 2 H^2), and with H_0 pinned to 1, P(0) = 0,
    so the cubic holds from v^0 through v^(horizon-1) exactly when the
    first-order equation H' (1 - 6 v H) = 2 H^2 holds through v^(horizon-2):
    on the integer numerators, (m+1) h_(m+1) = (3m+2) [H^2]_m for every
    m < horizon - 1, a linear check on the square that R = H - 4 v H^2
    forms anyway.  Each check fixes h_(m+1) from h_0..h_m, so it certifies
    every coefficient; the pin excludes the other branch, -H(-v), which
    solves the cubic too.  The check is quadratic in h, the term ratio that
    generates h linear and two steps apart.  A failed certificate is a hard
    failure, not a warning.  Once it holds, R = 1/H = w/g0 through
    v^(horizon-1), so b0 = (1 - R)/6 solves g0 (1 - 6 b0) = w with no series
    division.  g0 is known through v^horizon, b0 through v^(horizon-1).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    h = g0_coefficients(horizon)
    H = from_numerators(VAR_V, 0, h, 1)
    if H.coefficient(0) != 1:  # offset is the valuation, so this also pins offset 0
        raise ArithmeticError(f"leading series certificate: H = g0/w = {H!r} does not start at 1*v^0")
    H2 = H * H
    sq = H2.numerators  # over 1 and from v^0, since h_0 = 1
    for m, (hm, sm) in enumerate(zip(h[1:], sq)):
        if (m + 1) * hm != (3 * m + 2) * sm:
            raise ArithmeticError(
                f"leading series certificate: H' (1 - 6 v H) - 2 H^2 = {(m + 1) * hm - (3 * m + 2) * sm}*v^{m} "
                f"+ O(v^{m + 1}), expected 0 through v^{horizon - 2}"
            )
    R = H - H2.shift(1) * 4
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
    anti-diagonal is one ``even_taylor_sum`` or ``product_sum``; b_k costs k + 1
    products and one division, g_k one product more, R*b_k.  Returns (g_k, b_k, T_k).
    """
    k = len(g_lower)
    if k < 1 or len(b_lower) != k or len(t_lower) != k:
        raise ValueError("need matching g, b and T prefixes of length k >= 1")
    g0, r = g_lower[0], 1 - b_lower[0] * 6
    uk = even_taylor_sum((b_lower[m], k - m) for m in range(k))
    r1 = even_taylor_sum((g_lower[m], k - m) for m in range(k)) * -6
    if k > 1:  # pairs m < m' with m + m' = k stand for two ordered pairs
        r1 = r1 + product_sum((-6 if 2 * m < k else -3, b_lower[m], b_lower[k - m]) for m in range(1, k // 2 + 1))
    bk = product_sum([(36, g0, uk), *((36, g_lower[m], t_lower[k - m]) for m in range(1, k)), (-1, r, r1)]) / det
    gk = (r1 + r * bk) * Fraction(1, 6)
    return gk, bk, uk + bk


# g_1 and b_1 as (p_0 + p_1 H + p_2 H^2)/(1 - 108 v^2)^2, each p_i by ascending powers of v
G1_FORM = ((0, 0, 810), (0, 45, 0, 5832), (0, 0, 108))
B1_FORM = ((0, 1296), (54, 0, 7776), (0, -216))


def _order_1(form: tuple, H: TruncatedSeries, h4: TruncatedSeries) -> TruncatedSeries:
    """One member of order 1, through v^(h4's known_max), from H = 18 g0/v and h4 = 4 H^2 = (H - R)/v.

    Both are read off the certified leading pair, where R = 1 - 6 b0 = 1/H
    and 4 v H^3 - H^2 + 1 = 0, so H^3 = (H^2 - 1)/(4 v) takes any polynomial
    in H to degree 2.  The cubic gives H' = (6 + 36 v H - 4 H^2)/(1 - 108 v^2),
    and det = 1 - 6 v H has 1/det = (1 + 6 v H - 72 v^2 H^2)/(1 - 108 v^2);
    with g0 = v H/18 they reduce ``solve_order_k``'s k = 1 step to ``G1_FORM``
    and ``B1_FORM`` over (1 - 108 v^2)^2, a double pole at w = w_c.  One pass
    over the numerator and two of q_e = x_e + 108 q_(e-2), which divides by
    1 - 108 v^2, replace its products and its series division.  The window is
    that step's, two exponents below g0's: H reaches one further, and every
    H^2 term carries a factor v.
    """
    den, n = H.denominator * h4.denominator, h4.known_max + 1
    x = [0] * n  # 4 den times the numerator, from v^0
    for e, c in enumerate(form[0][:n]):
        x[e] = 4 * den * c
    for p, s, scale in ((form[1], H, 4 * h4.denominator), (form[2], h4, H.denominator)):
        for o, c in enumerate(p, s.offset):
            if c:
                x[o:n] = [a + c * scale * y for a, y in zip(x[o:n], s.numerators)]
    for _ in range(2):
        for e in range(2, n):
            x[e] += 108 * x[e - 2]
    return from_numerators(VAR_V, 0, x, 4 * den)


def slice_root(w, near):
    """Root H = g0/w of the leading slice 72 w H^3 - H^2 + 1 = 0 at real w > 0: of
    the two roots besides the negative one, the one nearer `near` (the continued branch).

    With c = 72 w, c H^3 - H^2 + 1 rises and is concave on H < 0, from -c at
    H = -1 to 1 at 0, so Newton from -1 climbs to the negative root r without
    overshooting, until a step falls below 2^10 eps |r|, plus one step.  The
    other two roots solve H^2 - s H + p, s = 1/c - r > 0, p = -1/(c r), as
    q = (s + sqrt(s^2 - 4p))/2 and p/q, which forms no difference of nearly
    equal roots.  The one nearer `near` gets two Newton steps (a fixed count:
    near the double root H = sqrt(3) at w_c = u_c^2 a step's rounding noise can
    exceed any tolerance a stopping rule would use) and is rounded once, at the
    working precision; a real root comes back as mpf.
    """
    from mpmath import extraprec, mp

    tol = mp.ldexp(mp.eps, 10)
    with extraprec(20):
        c = 72 * w

        def newton(h):
            return h - ((c * h - 1) * h * h + 1) / ((3 * c * h - 2) * h)

        r = mp.mpf(-1)
        for _ in range(mp.prec):
            r, last = newton(r), r
            if r - last < tol * -r:
                break
        else:
            raise ArithmeticError("Newton on the leading slice cubic did not settle")
        r = newton(r)
        s, p = 1 / c - r, -1 / (c * r)
        q = (s + mp.sqrt(s * s - 4 * p)) / 2
        h = newton(newton(min((q, p / q), key=lambda h: abs(h - near))))
    # as mp.polyroots does, an imaginary part below eps is rounding noise on a real root
    return +h.real if abs(mp.im(h)) < mp.eps else +h


def slice_b0(H, w):
    """b0 = (g0 - w)/(6 g0) at g0 = w H on any branch, as 12 w H^2/(H + 1): the slice
    makes H - 1 = 72 w H^3/(H + 1), which keeps b0 when H is next to 1."""
    return 12 * w * H * H / (H + 1)


def order_1_at(H, w):
    """(g_1, b_1) at one point of the slice, H = g0/w on any branch: ``G1_FORM`` and
    ``B1_FORM`` at v = 18 w, each divided once by (1 - 108 v^2)^2.

    b_1's numerator p_0 + p_1 H + p_2 H^2, p_2 = c + v r, is read as
    p_0 + (p_1 + q) H + c H^2 - q/H, q = r/4, which the slice's
    4 v H^2 = H - 1/H makes equal: p_1 + q drops ``B1_FORM``'s constant 54
    exactly, where 54 H - 216 v H^2 = 54/H, read as it stands, cancels to
    nothing on the far real root (H near 1/(4 v)).
    """
    v = 18 * w
    den = (1 - 108 * v * v) ** 2
    p0, p1, (c, *r) = B1_FORM
    q = [Fraction(a, 4) for a in r]
    p1q = [a + b for a, b in zip_longest(p1, q, fillvalue=0)]
    return _form_at(G1_FORM, v, H) / den, (_form_at((p0, p1q, (c,)), v, H) - _form_at((q,), v, H) / H) / den


def _form_at(form: tuple, v, H):
    """The numerator p_0 + p_1 H + p_2 H^2 of an order-1 form at the point (v, H)."""
    return sum(c * v**i * H**m for m, p in enumerate(form) for i, c in enumerate(p))


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
    g0, is itself an output; order max_k is then exact through v^horizon.
    The leading pair comes from ``compute_g0_series``: g0 by its term ratio,
    certified by the cubic's first-order form, and b0 = (1 - R)/6 from the
    square that certificate reads, with no division.  Order 1 is
    ``_order_1``'s closed form, with no product and no division.  Only from
    max_k = 2 on are det and the anti-diagonal sums T_0, T_1 formed: each
    order k >= 2 is ``solve_order_k``'s step, which divides once, by det, and
    carries T_k.  Every series is then cut to the horizon and dilated to w = v/18.
    """
    if max_k < 0 or horizon < 1:
        raise ValueError("need max_k >= 0 and horizon >= 1")
    g0, b0 = compute_g0_series(horizon + max(2 * max_k, 1))
    g, b = [g0], [b0]
    if max_k:
        H = (g0 * 18).shift(-1)
        h4 = (H + b0 * 6 - 1).shift(-1)  # 4 H^2 = (H - R)/v
        g.append(_order_1(G1_FORM, H, h4))
        b.append(_order_1(B1_FORM, H, h4))
    if max_k > 1:
        det = 1 - g0 * 108
        t = [b0, even_taylor_sum([(b0, 1)]) + b[1]]
        for _ in range(max_k - 1):
            gk, bk, tk = solve_order_k(g, b, det, t)
            g.append(gk)
            b.append(bk)
            t.append(tk)
    g_hat, b_hat = (tuple(s.truncate_to(horizon).dilate(18, VAR_W) for s in series) for series in (g, b))
    return StringHierarchy(max_k=max_k, horizon=horizon, g_hat=g_hat, b_hat=b_hat)
