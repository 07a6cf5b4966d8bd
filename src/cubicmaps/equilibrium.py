"""Equilibrium measure of the cubic model: the leading slice, endpoints and contour positivity.

The eigenvalue density in the one-cut regime is

    rho(z) = (1/2*pi*i) * sqrt((z-a)(z-b)) * h(z),    h(z) = 1 - 3*u*x - 3*u*z,

supported on [a, b] with a = x - y, b = x + y.  The endpoints are the
leading slice of the string equations at w = u^2, solved in H = g0/w:
72 w H^3 - H^2 + 1 = 0 on the branch H = 1 + 36 w + ..., the center is
x = b0/u with b0 = (H - 1)/(6 H), and the half-width is y = 2 sqrt(H), so
x solves 18 u^2 x^3 - 9 u x^2 + x - 6 u = 0.  z0 = 1/(3u) - x is the extra
zero of h.  One-cut regularity (z0 > b) holds up to the critical coupling
u_c = 3^(1/4)/18, where z0 collides with b and H reaches the slice's double
root sqrt(3).  This module owns the numeric slice in H, solved at every
w > 0 for the one branch root a caller asks for (a Newton climb to the
negative root, then the nearer member of the deflated quadratic's pair,
polished), its b0 and closed-form 1/N^2 terms, which
``finite_n`` continues past u_c; it solves for the endpoints, numerically
and as series in u^2 read off ``hierarchy``'s exact leading pair, and
samples the effective potential along the contour tails; it does not
evaluate rho itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from mpmath import extraprec, mp, workdps
from mpmath.libmp import from_man_exp, mpf_log, to_fixed

from .hierarchy import compute_g0_series
from .precision import as_mp
from .series import VAR_U2, TruncatedSeries


# fraction bits phi_check's fixed-point samples carry past the working precision
_PHI_GUARD = 20


def critical_coupling(dps: int):
    with workdps(dps):
        return mp.root(3, 4) / 18


def _gap_tolerance(b, dps: int):
    """Working tolerance on z0 - b at dps digits: a gap (b, z0) narrower than this is empty."""
    return mp.mpf(10) ** (-(dps - 10)) * max(1, abs(b))


class EquilibriumData(NamedTuple):
    u: object
    x: object
    y: object
    a: object
    b: object
    z0: object  # mp.inf at u = 0
    critical: bool
    dps: int


def solve_endpoints(u, precision: int = 40) -> EquilibriumData:
    """Endpoint data on the branch continuous from x(0) = 0, read off the leading slice.

    u (an mpf, int, Fraction or BigFloat) is read at precision + 20 digits.
    H = ``slice_root(w, 1)`` at w = u^2 is the root H = g0/w that starts as
    1 + 36 w, then x = b0/u and y = 2 sqrt(H).  Accepts 0 <= u <= u_c;
    exactly-critical input (to working tolerance) is flagged and reads the
    slice at its double root, H = sqrt(3) (g0 = 1/108) at w = u_c^2, so only
    x = b0/u sees the input; u beyond u_c raises.  At 1 - u/u_c = 10^-k,
    k > 30, H, x and y are computed with ceil(k/2) - 15 more digits and
    rounded back.
    """
    dps = precision
    with workdps(dps + 20):
        u = mp.mpf(as_mp(u))
        if u < 0:
            raise ValueError("coupling must be nonnegative")
        uc = critical_coupling(dps + 20)
        band = mp.mpf(10) ** (-(dps - 8))
        if u > uc * (1 + band):
            raise ValueError(f"u={u} beyond the one-cut critical coupling {uc}")
        critical = abs(u - uc) <= uc * band
        if u == 0:
            return EquilibriumData(
                u=mp.mpf(0), x=mp.mpf(0), y=mp.mpf(2), a=mp.mpf(-2), b=mp.mpf(2),
                z0=mp.inf, critical=False, dps=dps,
            )
        if critical:
            # the slice's double root H = sqrt(3), read as g0/w_c with g0 = 1/108
            w = uc * uc
            H = mp.mpf(1) / 108 / w
            extra = 0
        else:
            # next to u_c the root sits next to that double root and loses
            # about half the digits of 1 - u/u_c; add what the 20 guard
            # digits do not cover, which is nothing while 1 - u/u_c > 1e-30
            extra = max(0, int(mp.ceil(-mp.log10(1 - u / uc) / 2)) - 15)
        with workdps(dps + 20 + extra):
            if not critical:
                w = u * u
                H = slice_root(w, 1)
            if not (isinstance(H, mp.mpf) and H > 0):
                raise ArithmeticError(f"leading slice root H={H} is not real and positive")
            x = slice_b0(H, w) / u
            y = 2 * mp.sqrt(H)
        x, y = +x, +y  # rounded back to precision + 20 digits
        a, b = x - y, x + y
        z0 = 1 / (3 * u) - x
        if z0 - b < -_gap_tolerance(b, dps):
            raise ArithmeticError("double zero z0 fell inside the support")
        return EquilibriumData(u=u, x=x, y=y, a=a, b=b, z0=z0, critical=critical, dps=dps)


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


def slice_corrections(H, w):
    """The 1/N^2 terms (g2, b2) in closed form at g0 = w H on any branch of the slice;
    det = 1 - 108 g0 is the hierarchy's determinant, which divides each order once."""
    g0 = w * H
    det4 = (1 - 108 * g0) ** 4
    return 162 * g0 * (5 - 324 * g0) / det4, 54 / (H * det4)


def endpoint_series(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Exact expansions of the endpoint center and half-width in the coupling.

    Returns (X, Y) in the u^2 variable, with x(u) = u * X(u^2) (the center is
    an odd function of u) and y(u) = Y(u^2).  Both are read off the leading
    pair of ``compute_g0_series``, dilated from v = 18 w to w = u^2: X = b0/w
    and Y = 2 sqrt(H), H = g0/w, by the square-root recurrence.  The center cubic
    18 q^2 X^3 - 9 q X^2 + X - 6 = 0, q = u^2, must then close exactly
    through the returned window, which ties b0 to the endpoint center, and
    Y^2 = 4 H must hold exactly; a residual is a hard failure.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    g0, b0 = compute_g0_series(order + 2)
    X = b0.dilate(18, VAR_U2).shift(-1)
    q2 = X * X
    residual = (q2 * X).shift(2) * 18 - q2.shift(1) * 9 + X - 6
    if not residual.is_zero():
        raise ArithmeticError(f"center cubic residual {residual!r} of the leading slice is not zero")
    H = g0.dilate(18, VAR_U2).shift(-1)
    # Y = 2 sqrt(H): Y^2 = 4 H with Y_0 = 2 gives Y_n = H_n - (1/4) sum_(m=1..n-1) Y_m Y_(n-m)
    Y = [Fraction(2)]
    for n, h in enumerate(H.coeffs[1:], start=1):
        Y.append(h - sum((Y[m] * Y[n - m] for m in range(1, n)), Fraction(0)) / 4)
    Y = TruncatedSeries(VAR_U2, 0, Y)
    if Y * Y != H * 4:
        raise ArithmeticError(f"half-width series {Y!r} does not square to 4 g0/w")
    return X.truncate_to(order), Y.truncate_to(order)


class PhiReport(NamedTuple):
    """Sampled effective-potential landscape along the two contour tails."""

    all_positive: bool
    min_left: tuple  # (z, Re phi1) with smallest Re phi1 on (-inf, a)
    min_gap: tuple | None  # worst sample on (b, z0); None when the gap is empty (u = u_c)
    min_ray: tuple  # worst sample on the pi/3 ray from z0
    violations: tuple
    growth_coefficient: object  # fitted z^3 coefficient of Re phi2 on the ray
    vs_half_u: object  # |fit / (-u/2) - 1|: the integrand's own cubic term
    vs_third_u: object  # |fit / (-u/3) - 1|: the growth rate as printed in the source analysis
    samples: int
    zmax: float


def _tail_samples(eq: EquilibriumData, samples: int, zmax: float, bits: int) -> tuple:
    """(left, gap, ray): lists of (Re z, Im z, Re phi) at the sample points, as
    fixed-point integers with `bits` fraction bits.

    u enters through its exact mantissa and exponent, so it keeps its relative
    digits however small it is.  Each left or gap sample pays one isqrt and one
    mpf_log, each ray sample two isqrts and one mpf_log; each log-spaced grid
    takes one mpf ratio.  gap is empty when z0 - b is below working tolerance
    (the critical coupling).  The ray needs zmax > z0 * sqrt(3) / 2 to reach
    |z| = zmax; phi_check passes zmax >= 4 z0.
    """
    one = 1 << bits
    x, y, a, b, z0 = (to_fixed(v._mpf_, bits) for v in (eq.x, eq.y, eq.a, eq.b, eq.z0))
    _, u_man, u_exp, _ = eq.u._mpf_  # u < 1, so u_exp < 0
    h0 = one - (6 * u_man * x >> -u_exp)
    log_y = to_fixed(mpf_log(eq.y._mpf_, bits), bits)

    def re_phi(tr, ti, sr, si):
        # Re(h0 t S/4 - u S^3/2) - log|t + S| + log y, with log|q| = log(|q|^2)/2
        cube = sr * ((sr * sr - 3 * si * si) >> bits) >> bits
        poly = (h0 * ((tr * sr - ti * si) >> bits) >> (bits + 2)) - (u_man * cube >> (1 - u_exp))
        qr, qi = tr + sr, ti + si
        return poly - (to_fixed(mpf_log(from_man_exp(qr * qr + qi * qi, -2 * bits), bits), bits) >> 1) + log_y

    def logspace(lo, hi):
        ratio = to_fixed(mp.root(mp.mpf(hi) / lo, samples - 1)._mpf_, bits)
        pts = [lo]
        for _ in range(samples - 1):
            pts.append(pts[-1] * ratio >> bits)
        return pts

    def real_tail(z_at, sign, ds):
        # z = a - d (sign -1) or b + d (sign +1): t = sign (y + d), and the
        # principal factors make S = sign sqrt((z - a)(z - b)) = sign sqrt(d (d + 2y))
        out = []
        for d in ds:
            t, s = y + d, math.isqrt(d * (d + 2 * y))
            out.append((z_at + sign * d, 0, re_phi(sign * t, 0, sign * s, 0)))
        return out

    # left tail z = a - d; gap (b, z0) from b rightward
    width = b - a
    zm = to_fixed(mp.mpf(zmax)._mpf_, bits)
    left = real_tail(a, -1, logspace(width // 100, zm + a if zm + a > width else 2 * width))
    gap = []
    if eq.z0 - eq.b > _gap_tolerance(eq.b, eq.dps):
        d_gap_max = (z0 - b) * 999 // 1000
        gap = real_tail(b, 1, logspace(min(width // 100, d_gap_max // 10), d_gap_max))

    # ray z0 + r (1/2 + i sqrt(3)/2) at angle pi/3 (the asymptotic direction of
    # the outer contour); its grid starts at z0/1000 once z0 > 10 width, so it
    # scales with z0.  z - a and z - b have argument in [0, pi/2), so S is the
    # principal root of w = (z - a)(z - b): Re S = sqrt((|w| + Re w)/2), and
    # Re w > -|w|/2 keeps that sum free of cancellation
    half_sqrt3 = math.isqrt(3 << 2 * bits) >> 1
    r_edge = math.isqrt(zm * zm - (3 * z0 * z0 >> 2)) - (z0 >> 1)
    ray = []
    for r in logspace(max(width // 100, z0 // 1000), r_edge):
        zr, zi = z0 + (r >> 1), r * half_sqrt3 >> bits
        ea, eb = zr - a, zr - b
        wr, wi = (ea * eb - zi * zi) >> bits, zi * (ea + eb) >> bits
        sr = math.isqrt((math.isqrt(wr * wr + wi * wi) + wr) << (bits - 1))
        ray.append((zr, zi, re_phi(zr - x, zi, sr, (wi << (bits - 1)) // sr)))
    return left, gap, ray


def _as_mp(sample, bits: int) -> tuple:
    """(z, Re phi) at the current precision from a fixed-point sample (Re z, Im z, Re phi); z is real off the ray."""
    zr, zi, re = (mp.mpf((v, -bits)) for v in sample)
    return (mp.mpc(zr, zi) if zi else zr), re


def phi_check(eq: EquilibriumData, samples: int = 12, zmax: float = 100.0) -> PhiReport:
    """Verify Re phi > 0 along the contour tails from the closed-form antiderivative.

    phi1(z) = (1/2) int_a^z sqrt(R) h, phi2 likewise from b.  With t = s - x,
    S = sqrt((s-a)(s-b)) on the global branch (S^2 = t^2 - y^2) and
    h0 = 1 - 6*u*x, the integrand is S (h0 - 3*u*t) / 2, and h0 y^2 = 4 makes

        Phi(s) = h0 t S / 4 - u S^3 / 2 - log(t + S)

    an antiderivative.  Re Phi(a) = Re Phi(b) = -log y, so both tails read
    Re phi(z) = Re(h0 t S / 4 - u S^3 / 2) - log|t + S| + log y; only log|.|
    enters, so the branch of the log does not matter, and no sampled path
    crosses the cut [a, b].  Positivity is sampled at log-spaced points on
    (-inf, a), on (b, z0), and on the ray z0 + r e^{i pi/3}, out to
    |z| <= zmax.  A zmax below 4 z0 becomes 4 z0, the value reported: once
    z0 passes zmax/4, the lower fit radius below sits where the cubic term
    of Re phi does not yet dominate, and past zmax/2 every ray sample lies
    beyond both fit radii.  The sampling window is heuristic:
    growth ~ +u|z|^3/2 makes violations far out implausible, but only the
    sampled points are actually checked.

    The samples are evaluated in fixed point at the working precision
    (dps + 15 digits) plus _PHI_GUARD bits; each Re phi is good to a few
    units in its last fraction bit times its largest term.  The sign test,
    the worst sample of each tail and the fit's sample choice read those
    integers, and only the reported values become mpf.

    Also fits the cubic growth coefficient of Re phi2 on the ray (two-radius
    difference at |z| = zmax/2 and zmax/4) and reports it against -u/2 (what
    the integrand's large-z expansion gives) and -u/3 (the rate quoted in the
    source analysis; the two disagree, so both deviations are reported).
    """
    if not (0 < eq.u):
        raise ValueError("phi_check needs u > 0")
    if eq.z0 == mp.inf:
        raise ValueError("no finite z0 at u = 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not (math.isfinite(zmax) and zmax > 0):
        raise ValueError("zmax must be finite and positive")
    if zmax < 4 * eq.z0:
        zmax = float(4 * eq.z0)
        if mp.isinf(zmax):
            raise ValueError(f"z0={eq.z0} puts zmax = 4 z0 past the float range")
    with workdps(eq.dps + 15):
        bits = mp.prec + _PHI_GUARD
        left, gap, ray = _tail_samples(eq, samples, zmax, bits)

        tails = (("left", left), ("gap", gap), ("ray", ray))
        violations = tuple((name, *_as_mp(p, bits)) for name, pts in tails for p in pts if not p[2] > 0)

        # growth fit, differencing the two ray samples nearest |z| = zmax/2, zmax/4
        moduli = [math.isqrt(zr * zr + zi * zi) for zr, zi, _ in ray]
        zm = to_fixed(mp.mpf(zmax)._mpf_, bits)

        def nearest(target):
            return min(range(len(ray)), key=lambda i: abs(moduli[i] - target))

        hi, lo = nearest(zm >> 1), nearest(zm >> 2)
        if hi == lo:
            raise ValueError(
                f"the ray samples nearest |z| = zmax/2 and zmax/4 coincide ({samples} samples "
                f"up to zmax={zmax}); raise samples for the growth fit"
            )

        def re_cube(zr, zi, _):  # Re z^3 at 2 * bits fraction bits
            return zr * ((zr * zr - 3 * zi * zi) >> bits)

        growth = mp.mpf((ray[hi][2] - ray[lo][2], -bits)) / mp.mpf((re_cube(*ray[hi]) - re_cube(*ray[lo]), -2 * bits))
        vs_half = abs(growth / (-eq.u / 2) - 1)
        vs_third = abs(growth / (-eq.u / 3) - 1)

        def worst(pts):
            return _as_mp(min(pts, key=lambda p: p[2]), bits)

        return PhiReport(
            all_positive=not violations,
            min_left=worst(left),
            min_gap=worst(gap) if gap else None,
            min_ray=worst(ray),
            violations=violations,
            growth_coefficient=growth,
            vs_half_u=vs_half,
            vs_third_u=vs_third,
            samples=samples,
            zmax=zmax,
        )
