"""Equilibrium measure of the cubic model: the leading slice, endpoints and contour positivity.

The eigenvalue density in the one-cut regime is

    rho(z) = (1/2*pi*i) * sqrt((z-a)(z-b)) * h(z),    h(z) = 1 - 3*u*x - 3*u*z,

supported on [a, b] with a = x - y, b = x + y.  The endpoints are the
leading slice of the string equations at w = u^2: g0 solves the cubic
72 g0^3 - g0^2 + w^2 = 0 on the branch g0 = w + 36 w^2 + ..., the center is
x = b0/u with b0 = (g0 - w)/(6 g0), and the half-width is y = 2 sqrt(g0/w),
so x solves 18 u^2 x^3 - 9 u x^2 + x - 6 u = 0.  z0 = 1/(3u) - x is the
extra zero of h.  One-cut regularity (z0 > b) holds up to the critical
coupling u_c = 3^(1/4)/18, where z0 collides with b and g0 reaches the
slice's double root 1/108.  This module owns the numeric slice, which
``finite_n`` continues past u_c, solves for the endpoints, numerically and
as series in u^2 read off ``hierarchy``'s exact leading pair, and samples
the effective potential along the contour tails; it does not evaluate rho
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import extraprec, mp, workdps

from .hierarchy import compute_g0_series
from .precision import as_mp
from .series import VAR_U2, TruncatedSeries


def critical_coupling(dps: int):
    with workdps(dps):
        return mp.root(3, 4) / 18


def _gap_tolerance(b, dps: int):
    """Working tolerance on z0 - b at dps digits: a gap (b, z0) narrower than this is empty."""
    return mp.mpf(10) ** (-(dps - 10)) * max(1, abs(b))


@dataclass(frozen=True)
class EquilibriumData:
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
    g0 = ``_g0_branch(w, w)`` at w = u^2 is the root that starts as
    w + 36 w^2, then x = b0/u and y = 2 sqrt(g0/w).  Accepts 0 <= u <= u_c;
    exactly-critical input (to working tolerance) is flagged and reads the
    slice at its double root, g0 = 1/108 at w = u_c^2, so only x = b0/u sees
    the input; u beyond u_c raises.  At 1 - u/u_c = 10^-k, k > 30, g0, x and
    y are computed with ceil(k/2) - 15 more digits and rounded back.
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
            # the slice's double root g0 = 1/108 at w_c = u_c^2
            w, g0 = uc * uc, mp.mpf(1) / 108
            extra = 0
        else:
            # next to u_c the root sits next to that double root and loses
            # about half the digits of 1 - u/u_c; add what the 20 guard
            # digits do not cover, which is nothing while 1 - u/u_c > 1e-30
            extra = max(0, int(mp.ceil(-mp.log10(1 - u / uc) / 2)) - 15)
        with workdps(dps + 20 + extra):
            if not critical:
                w = u * u
                g0 = _g0_branch(w, w)
            if not (isinstance(g0, mp.mpf) and g0 > 0):
                raise ArithmeticError(f"leading slice root g0={g0} is not real and positive")
            x = _slice_b0(g0, w) / u
            y = 2 * mp.sqrt(g0 / w)
        x, y = +x, +y  # rounded back to precision + 20 digits
        a, b = x - y, x + y
        z0 = 1 / (3 * u) - x
        if z0 - b < -_gap_tolerance(b, dps):
            raise ArithmeticError("double zero z0 fell inside the support")
        return EquilibriumData(u=u, x=x, y=y, a=a, b=b, z0=z0, critical=critical, dps=dps)


_SMALL_W = 1 / 720  # 72|w| < 1/10: Newton for the small roots converges from y = 1 + 36 w


def _g0_branch(w, near):
    """Root of 72 x^3 - x^2 + w^2 nearest to `near`: the continued leading slice."""
    return min(_slice_roots(w), key=lambda r: abs(r - near))


def _slice_roots(w):
    """The three roots of 72 x^3 - x^2 + w^2 for real w > 0; real roots come back as mpf."""
    if abs(w) < _SMALL_W:
        # the roots x ~ +w and x ~ -w merge into a double root at 0 once w^2
        # falls below the working precision; with x = s*y, s = +-w, they are
        # the roots y ~ 1 of 72 s y^3 - y^2 + 1, and the third root follows
        # from their sum 1/72
        small = [s * _unit_root(72 * s) for s in (w, -w)]
        return small + [mp.mpf(1) / 72 - small[0] - small[1]]

    def newton(x):
        return x - ((72 * x - 1) * x * x + w * w) / ((216 * x - 2) * x)

    tol = mp.ldexp(mp.eps, 10)
    with extraprec(20):
        # on x < 0 the cubic rises and is concave, from -72 w^3 at x = -w to
        # w^2 at 0, so Newton from -w climbs to the real root r there without
        # overshooting, until a step falls below 2^10 eps |r|, plus one step
        r = -w
        for _ in range(mp.prec):
            r, last = newton(r), r
            if r - last < tol * -r:
                break
        else:
            raise ArithmeticError("Newton on the leading slice cubic did not settle")
        r = newton(r)
        # the other two solve x^2 - s x + p, s = 1/72 - r > 0, p = -w^2/(72 r),
        # as q = (s + sqrt(s^2 - 4p))/2 and p/q, which forms no difference of
        # nearly equal roots; two Newton steps polish each (a fixed count:
        # near the double root at w^2 = 1/34992 a step's rounding noise can
        # exceed any tolerance a stopping rule would use)
        s, p = mp.mpf(1) / 72 - r, -w * w / (72 * r)
        q = (s + mp.sqrt(s * s - 4 * p)) / 2
        roots = [r] + [newton(newton(x)) for x in (q, p / q)]
    # as mp.polyroots does, an imaginary part below eps is rounding noise on a real root
    return [+x.real if abs(mp.im(x)) < mp.eps else +x for x in roots]


def _unit_root(c):
    """Root y = 1 + c/2 + O(c^2) of c y^3 - y^2 + 1, for |c| < 1/10, by Newton."""
    tol = mp.eps  # a step below it leaves an error of order its square
    with extraprec(20):
        y = 1 + c / 2
        step = 1
        while abs(step) >= tol:
            step = (c * y ** 3 - y * y + 1) / (3 * c * y * y - 2 * y)
            y -= step
    return +y


def _slice_b0(g0, w):
    """b0 = (g0 - w)/(6 g0) on any branch, as 12 g0^2/(g0 + w): g0 - w = 72 g0^3/(g0 + w)
    by the cubic, which keeps b0 when g0 and w agree to working precision."""
    return 12 * g0 * g0 / (g0 + w)


def endpoint_series(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Exact expansions of the endpoint center and half-width in the coupling.

    Returns (X, Y) in the u^2 variable, with x(u) = u * X(u^2) (the center is
    an odd function of u) and y(u) = Y(u^2).  Both are read off the leading
    pair of ``compute_g0_series`` at w = u^2: X = b0/w and Y = 2 sqrt(g0/w).
    The center cubic 18 q^2 X^3 - 9 q X^2 + X - 6 = 0, q = u^2, must then
    close exactly through the returned window: it ties b0 to the endpoint
    center, and a residual is a hard failure.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    g0, b0 = compute_g0_series(order + 2)
    X = b0.shift(-1).retag(VAR_U2)
    q2 = X * X
    residual = (q2 * X).shift(2) * 18 - q2.shift(1) * 9 + X - 6
    if not residual.is_zero():
        raise ArithmeticError(f"center cubic residual {residual!r} of the leading slice is not zero")
    Y = g0.shift(-1).retag(VAR_U2).sqrt_unit() * 2
    return X.truncate_to(order), Y.truncate_to(order)


@dataclass(frozen=True)
class PhiReport:
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


def _tail_samples(eq: EquilibriumData, samples: int, zmax: float) -> tuple:
    """(left, gap, ray): lists of (z, Re phi) at the sample points, at the current dps.

    gap is empty when z0 - b is below working tolerance (the critical coupling).
    The ray needs zmax > z0 * sqrt(3) / 2 to reach |z| = zmax; phi_check
    passes zmax >= 4 z0.
    """
    u, x, y, a, b, z0 = eq.u, eq.x, eq.y, eq.a, eq.b, eq.z0
    h0 = 1 - 6 * u * x
    log_y = mp.log(y)

    def sample(z, sign=1):
        # S with one square root: on the left tail both principal factors are
        # i times a real root, so S = -sqrt((a-z)(b-z)) (sign -1), and in the
        # gap S = +sqrt; on the ray z - a and z - b have argument in
        # [0, pi/2), so S is the principal root of their product
        t, s = z - x, sign * mp.sqrt((z - a) * (z - b))
        return z, mp.re(h0 * t * s / 4 - u * s**3 / 2) - mp.log(abs(t + s)) + log_y

    def logspace(lo, hi, k):
        r = (hi / lo) ** (mp.mpf(1) / (k - 1))
        return [lo * r**i for i in range(k)]

    # left tail z = a - d; gap (b, z0) from b rightward
    width = b - a
    d_left_max = zmax + a if zmax + a > width else 2 * width
    left = [sample(a - d, -1) for d in logspace(width / 100, d_left_max, samples)]
    gap = []
    if z0 - b > _gap_tolerance(b, eq.dps):
        d_gap_max = (z0 - b) * mp.mpf("0.999")
        gap = [sample(b + d) for d in logspace(min(width / 100, d_gap_max / 10), d_gap_max, samples)]

    # ray from z0 at angle pi/3 (the asymptotic direction of the outer contour);
    # its grid starts at z0/1000 once z0 > 10 width, so it scales with z0
    direction = mp.exp(mp.mpc(0, mp.pi / 3))
    r_edge = -z0 / 2 + mp.sqrt(mp.mpf(zmax) ** 2 - 3 * z0 * z0 / 4)
    ray = [sample(z0 + r * direction) for r in logspace(max(width / 100, z0 / 1000), r_edge, samples)]
    return left, gap, ray


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

    Also fits the cubic growth coefficient of Re phi2 on the ray (two-radius
    difference at |z| = zmax/2 and zmax/4) and reports it against -u/2 (what
    the integrand's large-z expansion gives) and -u/3 (the rate quoted in the
    source analysis; the two disagree, so both deviations are reported).
    """
    if not (0 < eq.u):
        raise ValueError("phi_check needs u > 0")
    if eq.z0 == mp.inf:
        raise ValueError("no finite z0 at u = 0")
    if zmax < 4 * eq.z0:
        zmax = float(4 * eq.z0)
        if mp.isinf(zmax):
            raise ValueError(f"z0={eq.z0} puts zmax = 4 z0 past the float range")
    with workdps(eq.dps + 15):
        u = eq.u
        left, gap, ray = _tail_samples(eq, samples, zmax)
        violations = []
        for pts, name in ((left, "left"), (gap, "gap"), (ray, "ray")):
            for z, re_phi in pts:
                if not re_phi > 0:
                    violations.append((name, z, re_phi))

        # growth fit, differencing the two ray samples nearest |z| = zmax/2, zmax/4
        def nearest(target):
            return min(ray, key=lambda zr: abs(abs(zr[0]) - target))

        (z_hi, re_hi), (z_lo, re_lo) = nearest(zmax / 2), nearest(zmax / 4)
        if z_hi == z_lo:
            raise ValueError(
                f"the ray samples nearest |z| = zmax/2 and zmax/4 coincide ({samples} samples "
                f"up to zmax={zmax}); raise samples for the growth fit"
            )
        growth = (re_hi - re_lo) / mp.re(z_hi**3 - z_lo**3)
        vs_half = abs(growth / (-u / 2) - 1)
        vs_third = abs(growth / (-u / 3) - 1)

        def worst(pts):
            return min(pts, key=lambda zr: zr[1])

        return PhiReport(
            all_positive=not violations,
            min_left=worst(left),
            min_gap=worst(gap) if gap else None,
            min_ray=worst(ray),
            violations=tuple(violations),
            growth_coefficient=growth,
            vs_half_u=vs_half,
            vs_third_u=vs_third,
            samples=samples,
            zmax=zmax,
        )
