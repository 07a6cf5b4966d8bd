"""Test-only oracles: second routes to what the package computes one way.

The package itself never calls them.  By layer:

* series and hierarchy: coefficientwise series comparison, a series built
  from an {exponent: coefficient} map, the Gamma closed form of the leading
  series and the Lagrange-Buermann form of its powers, the residue sum and
  rational forms of the first correction (with the generalized binomial
  they need), direct substitution into the string equations with its
  Taylor terms by repeated differentiation, and the map to the coupling
  variable; the numeric value of a truncated series;
* toda: the genus-1 3F2 sum with every term rebuilt from Pochhammer symbols;
* critical: the numeric value of a Q(beta) element, the amplitude
  recursion run in Q(beta) itself, and Neville fits of the singular
  amplitudes C_2k and of w_c from the high-order series coefficients;
* wick: a whole-matching classifier of faces, components and genus, with
  its own rotation, for any even vertex count;
* finite_n and equilibrium: the moment-table inner product and the
  equilibrium density rho(z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp, workdps

from cubicmaps.equilibrium import EquilibriumData
from cubicmaps.finite_n import _QUAD_GUARD
from cubicmaps.hierarchy import StringHierarchy
from cubicmaps.numbers import BETA, SQRT3, Qbeta, gamma_exact
from cubicmaps.precision import BigFloat, as_mp, rational_to_mp
from cubicmaps.series import (
    VAR_U2,
    VAR_W,
    BeyondHorizonError,
    TruncatedSeries,
    from_numerators,
    zero_series,
)

# -- series and hierarchy --------------------------------------------------


def monomial(var: str, coeff, exponent: int, known_max: int) -> TruncatedSeries:
    """coeff * var^exponent, known through known_max."""
    if known_max < exponent:
        raise ValueError("known_max below the monomial exponent")
    return TruncatedSeries(var, exponent, (coeff,) + (0,) * (known_max - exponent))


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


def series_value(s: TruncatedSeries, x):
    """Partial sum of s over its tracked window at x, in the arithmetic of x (an mpf or mpc)."""
    acc = 0
    for c in reversed(s.coeffs):
        acc = acc * x + rational_to_mp(c)
    return acc * x**s.offset


def from_coefficients(var: str, pairs: dict, known_max: int) -> TruncatedSeries:
    """Series from {exponent: coefficient}; untouched slots up to known_max are zero."""
    if not pairs:
        return zero_series(var, known_max)
    offset = min(pairs)
    if max(pairs) > known_max:
        raise ValueError("coefficient beyond the declared window")
    out = [0] * (known_max - offset + 1)
    for e, c in pairs.items():
        out[e - offset] = c
    return TruncatedSeries(var, offset, tuple(out))


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
    ratio = gamma_exact(Fraction(3 * j, 2) - 1)[0] / gamma_exact(Fraction(j, 2) + 1)[0]
    return ratio * 72 ** (j - 1) / (2 * factorial(j - 1))


def h_power_coefficient(alpha, n: int) -> Fraction:
    """[w^n] H^alpha for H = g0/w, the root of H = (1 - 72 w H)^(-1/2) with H(0) = 1.

    With t = w H = w phi(t), phi(t) = (1 - 72 t)^(-1/2), Lagrange-Buermann
    gives 72^n (alpha/2) ((n + alpha)/2 + 1)_(n-1) / n! for n >= 1, with
    (c)_m the rising factorial; alpha is any rational.
    """
    if n < 0:
        raise ValueError("coefficients start at w^0")
    if n == 0:
        return Fraction(1)
    alpha = Fraction(alpha)
    c = (n + alpha) / 2 + 1
    rising = Fraction(1)
    for i in range(n - 1):
        rising *= c + i
    return 72**n * alpha / 2 * rising / factorial(n)


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

    g2 = 162 g0 (5 - 324 g0) / (1 - 108 g0)^4,  b2 = 54 w / (g0 (1 - 108 g0)^4),

    with g0 in w from its Gamma closed form, not from the package's v-series.
    """
    g0 = TruncatedSeries(VAR_W, 1, tuple(g0_coefficient(j) for j in range(1, horizon + 3)))
    d = 1 - g0 * 108
    d2 = d * d
    d4 = d2 * d2
    g2 = (g0 * 162) * (5 - g0 * 324) / d4
    b2 = monomial(VAR_W, 54, 1, horizon + 2) / (g0 * d4)
    return g2.truncate_to(horizon), b2.truncate_to(horizon)


def differentiate(s: TruncatedSeries) -> TruncatedSeries:
    """d/dvar.  The window slides down one exponent; length is preserved."""
    e0 = s.offset
    return from_numerators(s.var, e0 - 1, [x * (e0 + i) for i, x in enumerate(s.numerators)], s.denominator)


def taylor_weight(j: int) -> Fraction:
    return Fraction(1, factorial(2 * j) * 4**j)


def even_derivatives(g, b):
    """d2j(which, m, j): the memoised (2j)-th derivative of g[m] or b[m] (which = "g" or "b"),
    by repeated ``differentiate``, a different route from ``series.even_taylor_sum``."""
    derivs: dict[tuple[str, int, int], TruncatedSeries] = {}

    def d2j(which: str, m: int, j: int) -> TruncatedSeries:
        if j == 0:
            return (g if which == "g" else b)[m]
        key = (which, m, j)
        if key not in derivs:
            derivs[key] = differentiate(differentiate(d2j(which, m, j - 1)))
        return derivs[key]

    return d2j


def hat_equation_residuals(h: StringHierarchy) -> list[tuple[int, TruncatedSeries, TruncatedSeries]]:
    """Substitute the computed hierarchy back into the full string equations.

    Returns (k, residual of the b-equation, residual of the g-equation) for
    every order; all residuals must be zero series through their windows.
    The k = 0 g-equation residual is g0*(1 - 6*b0) - w.
    """
    out = []
    d2j = even_derivatives(h.g_hat, h.b_hat)
    for k in range(h.max_k + 1):
        eq1 = None
        for m in range(k + 1):
            term = d2j("g", m, k - m) * (6 * taylor_weight(k - m))
            eq1 = term if eq1 is None else eq1 + term
        for m in range(k + 1):
            eq1 = eq1 + h.b_hat[m] * h.b_hat[k - m] * 3
        eq1 = eq1 - h.b_hat[k]
        eq2 = h.g_hat[k]
        for m in range(k + 1):
            for mp in range(k - m + 1):
                eq2 = eq2 - h.g_hat[m] * d2j("b", mp, k - m - mp) * (6 * taylor_weight(k - m - mp))
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
    coeffs = tuple(c * s ** (src.offset + i) for i, c in enumerate(src.coeffs))
    return TruncatedSeries(VAR_U2, src.offset, coeffs).shift(2 * k - 1)


# -- toda ----------------------------------------------------------------


def pochhammer(a, m: int) -> Fraction:
    """Rising factorial (a)_m."""
    a = Fraction(a)
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


def genus1_hyp_sum(j: int) -> Fraction:
    """3F2(-j+1, 2, 6; 5, -3j/2+1; 3/2) with every term built from its Pochhammer symbols."""
    acc = Fraction(0)
    z = Fraction(3, 2)
    for m in range(j):
        num = pochhammer(-j + 1, m) * pochhammer(2, m) * pochhammer(6, m)
        den = pochhammer(5, m) * pochhammer(Fraction(-3 * j, 2) + 1, m) * factorial(m)
        acc += num / den * z**m
    return acc


# -- critical --------------------------------------------------------------


def qbeta_value(x: Qbeta):
    """x as an mpf at the working precision, by Horner's rule in beta = 12^(1/4)."""
    beta = mp.root(12, 4)
    acc = mp.mpf(0)
    for c in reversed(x.c):
        acc = acc * beta + rational_to_mp(c)
    return acc


def grades(x: Qbeta) -> set[int]:
    """beta-exponents with a nonzero component (the Z/4 grading of the field)."""
    return {i for i, n in enumerate(x.numerators) if n}


def critical_amplitudes(G: int) -> tuple[list, list]:
    """C_2k and D_2k = 6 sqrt(3) C_2k for k = 0..G, by the closed one-line
    recursion run in Q(beta) itself:

        C_2k = (beta^3/72) ((5k-6)(5k-4) C_{2k-2}/48 + 54 sum_(m=1..k-1) C_2m C_2(k-m)).
    """
    unit = BETA**3 / 72
    c = [-BETA / 18]
    for k in range(1, G + 1):
        cross_cc = sum((c[m] * c[k - m] for m in range(1, k)), Qbeta.rational(0))
        c.append(unit * ((5 * k - 6) * (5 * k - 4) * c[k - 1] / 48 + 54 * cross_cc))
    return c, [6 * SQRT3 * x for x in c]


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
    series = 1 - h.g_hat[0] * 108 if determinant else h.g_hat[k]
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


# -- wick ------------------------------------------------------------------


@dataclass(frozen=True)
class PairingTopology:
    """Classification of one explicit matching."""

    vertices: int
    faces: int
    components: int
    genus: int | None  # None when the map is disconnected

    @property
    def connected(self) -> bool:
        return self.components == 1


def analyze(match, n: int) -> tuple[int, int]:
    """(faces, vertex components) of a complete matching on n half-edges."""
    # counterclockwise rotation to the next half-edge on the same vertex
    rotation = [h - h % 3 + (h % 3 + 1) % 3 for h in range(n)]
    visited = [False] * n
    faces = 0
    for h0 in range(n):
        if visited[h0]:
            continue
        faces += 1
        c = h0
        while not visited[c]:
            visited[c] = True
            c = rotation[match[c]]
    p = n // 3
    parent = list(range(p))
    comps = p
    for h in range(n):
        j = match[h]
        if j > h:
            ra = h // 3
            while parent[ra] != ra:
                ra = parent[ra]
            rb = j // 3
            while parent[rb] != rb:
                rb = parent[rb]
            if ra != rb:
                parent[ra] = rb
                comps -= 1
    return faces, comps


def genus_of_pairing(pairs) -> PairingTopology:
    """Classify an explicit matching given as (i, j) half-edge pairs.

    Half-edge h sits on vertex h // 3.  The matching must be a fixed-point-free
    involution covering 0..3p-1 for an even vertex count p.
    """
    pairs = [(int(i), int(j)) for i, j in pairs]
    n = 2 * len(pairs)
    if n % 3:
        raise ValueError(f"{n} half-edges do not form trivalent vertices")
    p = n // 3
    if p % 2:
        raise ValueError(f"odd vertex count {p} admits no odd-moment pairing")
    match = [-1] * n
    for i, j in pairs:
        if i == j:
            raise ValueError(f"half-edge {i} paired with itself")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"half-edge pair ({i}, {j}) out of range for n={n}")
        if match[i] >= 0 or match[j] >= 0:
            raise ValueError(f"half-edge reused in pair ({i}, {j})")
        match[i] = j
        match[j] = i
    faces, comps = analyze(match, n)
    genus = None
    if comps == 1:
        twice = p // 2 + 2 - faces
        if twice % 2 or twice < 0:
            raise ArithmeticError("Euler count is not an even nonnegative integer")
        genus = twice // 2
    return PairingTopology(vertices=p, faces=faces, components=comps, genus=genus)


# -- finite_n and equilibrium ----------------------------------------------


def inner_product(moments, p_coeffs, q_coeffs) -> BigFloat:
    """<p, q> = sum_{i,j} p_i q_j c_{i+j} against precomputed moments (no conjugation)."""
    dps = min(m.dps for m in moments)
    with workdps(dps + _QUAD_GUARD):
        c = [as_mp(m) for m in moments]
        if len(p_coeffs) + len(q_coeffs) - 1 > len(c):
            raise ValueError("moment table too short for this product")
        acc = mp.mpc(0)
        for i, pi in enumerate(p_coeffs):
            pi = as_mp(pi)
            for j, qj in enumerate(q_coeffs):
                acc += pi * as_mp(qj) * c[i + j]
        return BigFloat(acc, dps)


def _sqrt_r(z, a, b):
    # principal factors: the global branch with cut on [a,b], ~ +z at +infinity;
    # on the upper side of the cut this is the boundary value from above
    return mp.sqrt(z - a) * mp.sqrt(z - b)


def re_phi_terms(eq: EquilibriumData, z) -> tuple:
    """The four terms of Re phi(z) = Re(h0 t S/4) - Re(u S^3/2) - log|t + S| + log y at the current
    dps, t = z - x, h0 = 1 - 6 u x, S on the global branch; their sum is the closed form phi_check samples."""
    t, s = z - eq.x, _sqrt_r(z, eq.a, eq.b)
    h0 = 1 - 6 * eq.u * eq.x
    return mp.re(h0 * t * s / 4), -mp.re(eq.u * s**3 / 2), -mp.log(abs(t + s)), mp.log(eq.y)


def density_at(eq: EquilibriumData, z):
    """rho(z) with the principal branch; real and nonnegative on (a, b)."""
    with workdps(eq.dps + 10):
        z = mp.mpmathify(z)
        h = 1 - 3 * eq.u * eq.x - 3 * eq.u * z
        return _sqrt_r(z, eq.a, eq.b) * h / (2 * mp.pi * mp.mpc(0, 1))
