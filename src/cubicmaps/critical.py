"""Critical-point structure of the string hierarchy.

At w_c = sqrt(3)/324 the determinant of the order-by-order linear system
vanishes and each hierarchy member develops a power singularity

    g_hat[2k] ~ C_2k (w_c - w)^((1-5k)/2),    b_hat[2k] ~ D_2k (...same power),

with all amplitudes in Q[beta]/(beta^4 - 12).  This module computes them
exactly (recursion in k), cross-checks them by a direct local expansion of
the endpoint cubic and by numerical fits to high-order series coefficients,
converts them into the leading growth of the genus-g map counts, and
verifies termwise that their generating function satisfies a Painleve-I
type equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, workdps

from .hierarchy import StringHierarchy
from .numbers import BETA, SQRT3, W_CRITICAL, Qbeta, gamma_exact
from .precision import BigFloat, rational_to_mp
from .series import VAR_DELTA, TruncatedSeries, from_coefficients

G0_AT_CRITICAL = Fraction(1, 108)
B0_AT_CRITICAL = Qbeta((Fraction(1, 6), 0, Fraction(-1, 36), 0))  # (3 - sqrt(3))/18

# Inverse slope of the determinant at w_c: 1/(2^(3/2) 3^(5/4)) = beta^3/72.
# Keeping it as a field element is what lets the recursion stay exact.
_CRAMER_UNIT = BETA**3 / 72


def _consistent(lhs, rhs, what: str) -> None:
    if lhs != rhs:
        raise ArithmeticError(f"critical recursion inconsistency: {what}")


def _verify_critical_point() -> None:
    wc_sq = (W_CRITICAL * W_CRITICAL).rational_part()
    _consistent(wc_sq, Fraction(1, 34992), "w_c^2 = 1/(3*108^2)")
    g0 = G0_AT_CRITICAL
    _consistent(72 * g0**3 - g0**2 + wc_sq, Fraction(0), "g_hat0(w_c) on the cubic")
    b0 = B0_AT_CRITICAL
    _consistent(6 * g0 + 3 * b0 * b0, b0, "b_hat0(w_c) closure")
    _consistent((1 - 6 * b0) * g0, W_CRITICAL, "g_hat0(w_c) (1 - 6 b_hat0(w_c)) = w_c")
    _consistent(_CRAMER_UNIT * (6 * BETA), Qbeta.rational(1), "determinant slope unit")


@dataclass(frozen=True)
class CriticalConstants:
    """Exact singular amplitudes at w_c."""

    G: int
    C: tuple  # Qbeta amplitudes of g_hat[2k], k = 0..G
    D: tuple  # Qbeta amplitudes of b_hat[2k]; D[k] = 6 sqrt(3) C[k]
    signs: tuple  # sign of each C[k]; expected -1 then all +1


def _next_C(c: list) -> Qbeta:
    """C_2k from C_0..C_(2k-2) by the closed one-line recursion."""
    k = len(c)
    cross_cc = sum((c[m] * c[k - m] for m in range(1, k)), Qbeta.rational(0))
    return _CRAMER_UNIT * ((5 * k - 6) * (5 * k - 4) * c[k - 1] / 48 + 54 * cross_cc)


def run_C_recursion(G: int) -> CriticalConstants:
    """Exact C_2k/D_2k amplitudes through order G.

    C_2k comes from the closed one-line recursion

        C_2k = (beta^3/72) ((5k-6)(5k-4) C_{2k-2}/48 + 54 sum C_2m C_2m'),

    and D_2k = 6 sqrt(3) C_2k.  Each order is checked against the critically
    singular 2x2 system: its right-hand side A_2k, B_2k is assembled from the
    D data and solved by Cramer, and the solution must equal both C_2k and
    D_2k, so a slip in the recursion raises instead of propagating.
    """
    if G < 0:
        raise ValueError("need G >= 0")
    _verify_critical_point()
    c_list = [-BETA / 18]
    d_list = [-(BETA**3) / 6]
    for k in range(1, G + 1):
        c_k = _next_C(c_list)
        d_k = 6 * SQRT3 * c_k
        poly = Fraction((5 * k - 6) * (5 * k - 4))
        zero = Qbeta.rational(0)
        cross_cd = sum((c_list[m] * d_list[k - m] for m in range(1, k)), zero)
        cross_dd = sum((d_list[m] * d_list[k - m] for m in range(1, k)), zero)
        a_k = Fraction(-3, 16) * poly * c_list[k - 1] - 3 * cross_dd
        b_k = Fraction(1, 576) * poly * d_list[k - 1] + 6 * cross_cd
        _consistent(_CRAMER_UNIT * (-a_k / 18 + SQRT3 * b_k / 3), c_k, f"C at order {k}, singular system")
        _consistent(_CRAMER_UNIT * (-SQRT3 * a_k / 3 + 6 * b_k), d_k, f"D at order {k}, singular system")
        c_list.append(c_k)
        d_list.append(d_k)
    return CriticalConstants(G=G, C=tuple(c_list), D=tuple(d_list), signs=tuple(map(_sign, c_list)))


def _sign(x: Qbeta) -> int:
    """Sign of a beta-monomial: that of its one nonzero component, since beta > 0."""
    grades = x.grades()
    if len(grades) > 1:
        raise ArithmeticError(f"{x} is not a beta-monomial; grades {sorted(grades)}")
    if not grades:
        return 0
    q = x.c[grades.pop()]
    return 1 if q > 0 else -1


def _amplitude_exact(c2g: Qbeta, g: int) -> tuple[Fraction, int]:
    """Reduce 6*3^(1/4) C_2g / (Gamma((5g-1)/2) u_c^g) to (q, n): K = q (6 pi)^(n/2).

    C_2g is a single beta-monomial of grade (1-g) mod 4; the half-integer
    Gamma values contribute the sqrt(pi), tracked via n, so the rational
    amplitudes come out exactly rational.
    """
    grade = (1 - g) % 4
    extra = c2g.grades() - {grade}
    if extra:
        raise ArithmeticError(f"C_{2 * g} has unexpected beta-grades {sorted(extra)}")
    q = c2g.c[grade]
    two = grade  # running exponent of 2^(1/2)
    three = grade  # running exponent of 3^(1/4)
    q *= 6
    three += 1
    q *= Fraction(18) ** g  # 1/u_c^g = 18^g 3^(-g/4)
    three -= g
    gval, has_sqrt_pi = gamma_exact(Fraction(5 * g - 1, 2))
    q /= gval
    n = -1 if has_sqrt_pi else 0
    two -= n
    three -= 2 * n
    if two % 2 or three % 4:
        raise ArithmeticError("map-count amplitude is not rational * (6 pi)^(n/2)")
    q *= Fraction(2) ** (two // 2) * Fraction(3) ** (three // 4)
    return q, n


def _amplitude_value(c2g: Qbeta, g: int, precision: int) -> BigFloat:
    q, n = _amplitude_exact(c2g, g)
    with workdps(precision + 10):
        v = rational_to_mp(q)
        if n == -1:
            v = v / mp.sqrt(6 * mp.pi)
    return BigFloat(v, precision)


def compute_K(consts: CriticalConstants, g: int, precision: int = 40) -> BigFloat:
    """Leading large-size amplitude of the genus-g count coefficients."""
    if not 0 <= g <= consts.G:
        raise ValueError(f"genus {g} outside computed range 0..{consts.G}")
    return _amplitude_value(consts.C[g], g, precision)


# -- direct local expansion at the critical point ---------------------------


@dataclass(frozen=True)
class DeltaExpansion:
    """Puiseux data at w_c in delta = sqrt(w_c - w): {exponent: Qbeta coefficient}.

    Each map covers its whole known window, zeros included.
    """

    order: int
    g0: dict  # exponents 0..order; g0[1] is C_0
    b0: dict  # exponents 0..order; b0[1] is D_0
    g2: dict  # exponents -4..order-5; g2[-4] is C_2
    det: dict  # exponents 0..order; det[1] is 6 beta


def _lift(series: TruncatedSeries, beta_shift: int = 0) -> dict:
    """{m: c_m beta^(m + beta_shift)} over min(offset, 0)..known_max of the x-series sum c_m x^m."""
    out = {}
    for m in range(min(series.offset, 0), series.known_max + 1):
        k = m + beta_shift  # beta^k = 12^(k // 4) beta^(k % 4)
        slot = [0, 0, 0, 0]
        slot[k % 4] = series.coefficient(m) * Fraction(12) ** (k // 4)
        out[m] = Qbeta(slot)
    return out


def delta_expansion(order: int) -> DeltaExpansion:
    """Expand the hierarchy's leading data locally at w_c, no recursion involved.

    The deviation e = g_hat0 - 1/108 satisfies e^2 + 72 e^3 = 2 w_c d^2 - d^4
    with d^2 = w_c - w; the branch with e ~ -(beta/18) d is the one the
    subcritical series approaches (g_hat0 increases into w_c).  In x = beta d
    the equation is rational, e^2 + 72 e^3 = x^2/324 - x^4/12 with
    e ~ -x/18, so g_hat0, the determinant 1 - 108 g_hat0 and, via its closed
    form, g_hat2 are rational x-series, and so is r in
    b_hat0 = 1/6 - beta^2 r, r = (1/648 - x^2/12) / (6 g_hat0).  Lifting
    x^m to beta^m d^m (beta^(m+2) d^m for r) gives the delta-series over
    Q[beta], from which the recursion amplitudes C_0, D_0, C_2 can be read
    off an independent route.
    """
    if order < 6:
        raise ValueError("need order >= 6 to expose the fourth-order pole of g_hat2")
    _consistent(BETA**2 / 324, 2 * W_CRITICAL, "x = beta delta turns 2 w_c delta^2 into x^2/324")
    e = {1: Fraction(-1, 18)}
    for n in range(3, order + 2):
        rhs = Fraction(-1, 12) if n == 4 else 0
        square = sum(e[a] * e[n - a] for a in range(2, n - 1))
        cube = sum(e[a] * e[b] * e[n - a - b] for a in range(1, n - 1) for b in range(1, n - a))
        e[n - 1] = (rhs - square - 72 * cube) / (2 * e[1])
    # rational series in x, tagged delta: exponent m stands for x^m = beta^m delta^m
    g0 = from_coefficients(VAR_DELTA, {0: G0_AT_CRITICAL, **e}, order)
    det = 1 - 108 * g0
    r = from_coefficients(VAR_DELTA, {0: Fraction(1, 648), 2: Fraction(-1, 12)}, order) / (6 * g0)
    g2 = (162 * g0 * (5 - 324 * g0)) / det**4
    b0 = _lift(-r, beta_shift=2)
    b0[0] = b0[0] + Fraction(1, 6)
    return DeltaExpansion(order=order, g0=_lift(g0), b0=b0, g2=_lift(g2), det=_lift(det))


# -- numerical fits of the singular behavior --------------------------------


@dataclass(frozen=True)
class SingularFit:
    """Extrapolated singular amplitude and location from series coefficients."""

    order: int
    exponent: Fraction  # (1 - 5k)/2
    amplitude: BigFloat
    amplitude_error: BigFloat  # extrapolation-table estimate, not a bound
    radius: BigFloat  # fitted singularity location; target w_c
    radius_error: BigFloat
    points: int


_FIT_POINTS = 12


def critical_leading(
    h: StringHierarchy, k: int, delta_horizon: int, determinant: bool = False
) -> SingularFit:
    """Fit the leading singular coefficient of g_hat[2k] at w_c.

    If f = C (w_c - w)^alpha + milder terms, alpha = (1-5k)/2, then

        c_j ~ C w_c^(alpha-j) j^(-alpha-1) / Gamma(-alpha)

    with corrections in integer powers of j^(-1/2) (the local expansion
    steps by half powers, and the only other branch point, at -w_c, is a
    regular point of this branch).  The normalized tail and the coefficient
    ratio c_{j-1}/c_j -> w_c are both extrapolated to j -> infinity by
    Neville's scheme in j^(-1/2).  With determinant=True fits the
    determinant series instead (k must be 0, amplitude target 6 beta).
    """
    if determinant and k != 0:
        raise ValueError("determinant fit is a k = 0 object")
    if not 0 <= k <= h.max_k:
        raise ValueError(f"order {k} outside hierarchy range 0..{h.max_k}")
    if delta_horizon > h.horizon:
        raise ValueError(f"delta_horizon {delta_horizon} beyond horizon {h.horizon}")
    if delta_horizon < 3 * _FIT_POINTS:
        raise ValueError("insufficient horizon for a stable fit (need >= 36)")
    series = h.det if determinant else h.g_hat[k]
    alpha = Fraction(1 - 5 * k, 2)
    wdps = 60 + 2 * _FIT_POINTS
    with workdps(wdps):
        wc = mp.sqrt(3) / 324
        gam = mp.gamma(rational_to_mp(-alpha))
        xs, amps, ratios = [], [], []
        for j in range(delta_horizon - _FIT_POINTS + 1, delta_horizon + 1):
            c_j = series.coefficient(j)
            c_prev = series.coefficient(j - 1)
            t = rational_to_mp(c_j) * wc ** rational_to_mp(j - alpha)
            t *= gam * mp.mpf(j) ** rational_to_mp(alpha + 1)
            xs.append(1 / mp.sqrt(j))
            amps.append(t)
            ratios.append(rational_to_mp(Fraction(c_prev, c_j)))
        amp, amp_err = _neville_to_zero(xs, amps)
        rad, rad_err = _neville_to_zero(xs, ratios)
    return SingularFit(
        order=k,
        exponent=alpha,
        amplitude=BigFloat(amp, wdps),
        amplitude_error=BigFloat(amp_err, wdps),
        radius=BigFloat(rad, wdps),
        radius_error=BigFloat(rad_err, wdps),
        points=_FIT_POINTS,
    )


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation to x = 0 with a last-two-columns error estimate."""
    tab = list(ys)
    n = len(tab)
    prev = tab[0]
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = (xs[i + m] * tab[i] - xs[i] * tab[i + 1]) / (xs[i + m] - xs[i])
        if m == n - 2:
            prev = tab[0]
    err = 8 * abs(tab[0] - prev)
    return tab[0], err


# -- Painleve I consistency --------------------------------------------------


@dataclass(frozen=True)
class PainleveReport:
    """Termwise substitution of y(t) = sum C_2g t^((1-5g)/2) into y'' = q (y^2 - C_0^2 t)."""

    G: int
    q: Qbeta  # unique coefficient fixed by the leading order
    orders_verified: int  # higher orders checked to vanish exactly
    mu: Qbeta  # recursion normalization beta^3/3456
    nu: Qbeta  # recursion normalization 3 beta^3/4
    nu_normalization: Qbeta  # nu * (-2 C_0), exactly 1
    q_over_inv_8mu: Qbeta  # q / (1/(8 mu))
    matches_inv_8mu: bool
    matches_inv_8mu_c0: bool
    standard_form_q: Qbeta  # the reading validated by the (c, lambda) rescaling
    standard_form_deviation: BigFloat


def painleve_check(consts: CriticalConstants, G: int) -> PainleveReport:
    """Verify the amplitude recursion is a Painleve-I series, and report which q.

    Matching t^((2-5s)/2): C_{2(s-1)} (25(s-1)^2 - 1)/4 = q sum_{a+b=s} C_2a C_2b.
    s = 1 fixes q; s = 2..G must then vanish identically or the recursion is
    inconsistent (fatal).  The recursion's own normalization constants mu, nu
    admit two readings of q, 1/(8 mu) versus 1/(8 mu C_0), which differ; the
    report carries the termwise q, its ratio to 1/(8 mu), and a 40-digit check
    of the standard-form rescaling t = -c tau, u = lambda y (u'' = 6 u^2 + tau
    with c = 2^(-3/5), lambda = 2^(3/10) 3^(5/4)), which singles out 1/(8 mu).
    """
    if G < 1:
        raise ValueError("need G >= 1")
    if consts.G < G + 1:
        raise ValueError(f"need C_2g through g = {G + 1}, have {consts.G}")
    c = consts.C

    def lhs(g: int) -> Qbeta:
        return Fraction(25 * g * g - 1, 4) * c[g]

    def pair_sum(s: int) -> Qbeta:
        return sum((c[a] * c[s - a] for a in range(s + 1)), Qbeta.rational(0))

    q = lhs(0) / pair_sum(1)
    verified = 0
    for g in range(1, G):
        if lhs(g) != q * pair_sum(g + 1):
            raise ArithmeticError(f"no single quadratic coefficient works at order {g}")
        verified += 1
    mu = _CRAMER_UNIT / 48
    nu = _CRAMER_UNIT * 54
    _consistent(nu, Qbeta.rational(-1) / (2 * c[0]), "nu = -1/(2 C_0)")
    inv_8mu = Qbeta.rational(1) / (8 * mu)
    with workdps(45):
        scale = mp.power(2, mp.mpf(-3) / 5)
        lam = mp.power(2, mp.mpf(3) / 10) * mp.power(3, mp.mpf(5) / 4)
        q_num = inv_8mu.evaluate(mp.mpf(1))
        c0_num = c[0].evaluate(mp.mpf(1))
        dev1 = abs(scale**2 * q_num / lam - 6)
        dev2 = abs(lam * scale**3 * q_num * c0_num**2 - 1)
        deviation = BigFloat(max(dev1, dev2), 40)
    return PainleveReport(
        G=G,
        q=q,
        orders_verified=verified,
        mu=mu,
        nu=nu,
        nu_normalization=nu * (-2 * c[0]),
        q_over_inv_8mu=q * 8 * mu,
        matches_inv_8mu=q == inv_8mu,
        matches_inv_8mu_c0=q == inv_8mu / c[0],
        standard_form_q=inv_8mu,
        standard_form_deviation=deviation,
    )
