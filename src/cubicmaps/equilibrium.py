"""Equilibrium measure of the cubic model: endpoints and contour positivity.

The eigenvalue density in the one-cut regime is

    rho(z) = (1/2*pi*i) * sqrt((z-a)(z-b)) * h(z),    h(z) = 1 - 3*u*x - 3*u*z,

supported on [a, b] with a = x - y, b = x + y.  The center x solves the cubic
18 u^2 x^3 - 9 u x^2 + x - 6 u = 0 on the branch with x -> 0 as u -> 0, the
half-width is y = 2/sqrt(1 - 6 u x), and z0 = 1/(3u) - x is the extra zero of
h.  One-cut regularity (z0 > b) holds up to the critical coupling
u_c = 3^(1/4)/18, where z0 collides with b.  This module solves for the
endpoints, numerically and as series in u^2, and samples the effective
potential along the contour tails; it does not evaluate rho itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, workdps

from .series import VAR_U2, TruncatedSeries, monomial


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
    """Endpoint data on the branch continuous from x(0) = 0.

    Accepts 0 <= u <= u_c; exactly-critical input (to working tolerance) is
    flagged and solved on the double-root branch, u beyond u_c raises.
    """
    dps = precision
    with workdps(dps + 20):
        u = mp.mpf(u)
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
            # double root of the cubic = root of its derivative that stays bounded
            x = (18 - mp.sqrt(108)) / (108 * u)
        else:
            x = _center_root(u)
        one_minus = 1 - 6 * u * x
        if one_minus <= 0:
            raise ArithmeticError("1 - 6*u*x not positive; wrong root branch")
        y = 2 / mp.sqrt(one_minus)
        a, b = x - y, x + y
        z0 = 1 / (3 * u) - x
        if z0 - b < -_gap_tolerance(b, dps):
            raise ArithmeticError("double zero z0 fell inside the support")
        return EquilibriumData(u=u, x=x, y=y, a=a, b=b, z0=z0, critical=critical, dps=dps)


def _center_root(u):
    """Least positive root of 18 u^2 x^3 - 9 u x^2 + x - 6 u, for 0 < u < u_c, by Newton from 0.

    Below that root the cubic rises (f' > 0 up to (18 - sqrt(108))/(108 u))
    and is concave (f'' < 0 up to 1/(6u)), so every tangent lies above it:
    the iterates climb monotonically and never overshoot.  A step that falls
    below 2^10 eps x (or turns negative in rounding noise) marks convergence,
    and one more step takes the quadratic gain.
    """
    def rise(x):
        return -(((18 * u * u * x - 9 * u) * x + 1) * x - 6 * u) / ((54 * u * u * x - 18 * u) * x + 1)

    tol = mp.ldexp(mp.eps, 10)
    x = mp.zero
    for _ in range(mp.prec):  # the climb halves the error at worst, near the double root at u_c
        dx = rise(x)
        x += dx
        if dx < tol * x:
            return x + rise(x)
    raise ArithmeticError("Newton on the endpoint cubic did not settle")


def endpoint_series(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Exact expansions of the endpoint center and half-width in the coupling.

    Returns (X, Y) in the u^2 variable, with x(u) = u * X(u^2) (the center is
    an odd function of u) and y(u) = Y(u^2).  X solves
    18 q^2 X^3 - 9 q X^2 + X - 6 = 0 term by term, q = u^2.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    X = monomial(VAR_U2, 6, 0, order)
    steps = 0
    while (1 << steps) <= order + 1:
        steps += 1
    for _ in range(steps + 1):
        q2 = X * X
        f = (q2 * X).shift(2) * 18 - q2.shift(1) * 9 + X - 6
        df = q2.shift(2) * 54 - X.shift(1) * 18 + 1
        X = X - f / df
    q2 = X * X
    residual = (q2 * X).shift(2) * 18 - q2.shift(1) * 9 + X - 6
    if not residual.is_zero():
        raise ArithmeticError("endpoint series iteration did not close")
    Y = 2 / (1 - X.shift(1) * 6).sqrt_unit()
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
