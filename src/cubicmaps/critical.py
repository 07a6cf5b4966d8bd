"""Critical-point structure of the string hierarchy.

At w_c = sqrt(3)/324 the determinant of the order-by-order linear system
vanishes and each hierarchy member develops a power singularity

    g_hat[2k] ~ C_2k (w_c - w)^((1-5k)/2),    b_hat[2k] ~ D_2k (...same power),

with all amplitudes in Q[beta]/(beta^4 - 12).  Each C_2k is a single
beta-monomial, Y_k beta^(1-k) / (18 576^k) with Y_k an integer, so this
module runs the recursion in k on the integers Y_k and lifts each order
into the field once.  Every order is checked in Q[beta] against the
critically singular 2x2 system, solved by Cramer.  The record keeps the
Y_k beside the field elements.  The signs of the C_2k, the growth constants
K_2g of the genus-g map counts (one integer ratio each, rounded once) and
each count's large-j estimate are read off them.  Termwise, the
amplitudes' generating function satisfies a Painleve-I type equation,
checked with no floats; two identities in Q[beta] check it against the
source's rescaling (c, lambda) to the standard form Y'' = 6 Y^2 + tau,
whose constants are taken as given.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd
from typing import NamedTuple

from .numbers import BETA, SQRT3, W_CRITICAL, Qbeta, _qbeta
from .precision import BigFloat

G0_AT_CRITICAL = Fraction(1, 108)
B0_AT_CRITICAL = Qbeta((Fraction(1, 6), 0, Fraction(-1, 36), 0))  # (3 - sqrt(3))/18


def critical_coupling(dps: int):
    """u_c = 3^(1/4)/18, the coupling at w_c = u_c^2, as an mpf at dps digits."""
    from mpmath import mp, workdps

    with workdps(dps):
        return mp.root(3, 4) / 18


# Inverse slope of the determinant at w_c: 1/(2^(3/2) 3^(5/4)) = beta^3/72,
# the unit of the Cramer solve, kept as a field element.
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


class CriticalConstants(NamedTuple):
    """Exact singular amplitudes at w_c."""

    G: int
    Y: tuple  # integers Y_k with C[k] = Y_k beta^(1-k) / (18 576^k)
    C: tuple  # Qbeta amplitudes of g_hat[2k], k = 0..G
    D: tuple  # Qbeta amplitudes of b_hat[2k]; D[k] = 6 sqrt(3) C[k]
    signs: tuple  # sign of each C[k]; expected -1 then all +1


def _monomial(n: int, den: int, r: int) -> Qbeta:
    """n beta^r / den in the field, from integers: beta^r = 12^q beta^e with r = 4q + e."""
    q, e = divmod(r, 4)
    if q >= 0:
        n *= 12**q
    else:
        den *= 12 ** (-q)
    nums = [0, 0, 0, 0]
    nums[e] = n
    return _qbeta(*nums, den)


def _pair_sum(v: list, k: int) -> int:
    """sum_(m=1..k-1) v_m v_(k-m), with each symmetric pair multiplied once."""
    total = 2 * sum(v[m] * v[k - m] for m in range(1, (k + 1) // 2))
    if k % 2 == 0:
        total += v[k // 2] * v[k // 2]
    return total


def _next_Y(y: list, pair: int) -> int:
    """Y_k from Y_0..Y_(k-1) and pair = sum_(m=1..k-1) Y_m Y_(k-m): 2(5k-6)(5k-4) Y_(k-1) + pair/2.

    Every Y_m with m >= 1 is even, so the half is exact on integers.
    """
    k = len(y)
    return 2 * (5 * k - 6) * (5 * k - 4) * y[k - 1] + pair // 2


# Cramer's rule on the singular 2x2 system at order k, times its unit beta^3/72:
# C_2k = unit (-A_2k/18 + sqrt(3) B_2k/3) and D_2k = unit (-sqrt(3) A_2k/3 + 6 B_2k).
_CRAMER_C = (_CRAMER_UNIT * Fraction(-1, 18), _CRAMER_UNIT * SQRT3 / 3)
_CRAMER_D = (-_CRAMER_UNIT * SQRT3 / 3, _CRAMER_UNIT * 6)
_D_OVER_C = 6 * SQRT3


def run_C_recursion(G: int) -> CriticalConstants:
    """Exact C_2k/D_2k amplitudes through order G.

    The closed one-line recursion

        C_2k = (beta^3/72) ((5k-6)(5k-4) C_{2k-2}/48 + 54 sum C_2m C_2m'),

    divided by its grade and rescaled, runs on integers:
    C_2k = Y_k beta^(1-k) / (18 576^k) with Y_0 = -1 and
    Y_k = 2(5k-6)(5k-4) Y_(k-1) + (1/2) sum_(m=1..k-1) Y_m Y_(k-m).  Each
    order is lifted into Q(beta) once, and D_2k = 6 sqrt(3) C_2k there.

    Each order is checked against the critically singular 2x2 system in
    Q(beta): its right-hand side A_2k, B_2k is assembled from the C and D
    data, whose cross sums are integer dot products over the Y_m (with
    D_2m = Z_m beta^(3-m) / (18 576^m), Z_m = 3 Y_m, which the D comparison
    verifies at every order), and solved by Cramer; the solution must equal
    both C_2k and D_2k, so a slip in the recursion raises instead of
    propagating.
    """
    if G < 0:
        raise ValueError("need G >= 0")
    _verify_critical_point()
    y = [-1]
    c_list = [-BETA / 18]
    d_list = [-(BETA**3) / 6]
    for k in range(1, G + 1):
        cross_yy = _pair_sum(y, k)
        y.append(_next_Y(y, cross_yy))
        scale = 18 * 576**k
        c_k = _monomial(y[k], scale, 1 - k)
        d_k = _D_OVER_C * c_k
        # C_2m D_2m' and D_2m D_2m' over 18^2 576^k, of grades 4 - k and 6 - k
        cross_cd = _monomial(3 * cross_yy, 18 * scale, 4 - k)
        cross_dd = _monomial(9 * cross_yy, 18 * scale, 6 - k)
        poly = (5 * k - 6) * (5 * k - 4)
        a_k = Fraction(-3 * poly, 16) * c_list[k - 1] - 3 * cross_dd
        b_k = Fraction(poly, 576) * d_list[k - 1] + 6 * cross_cd
        _consistent(_CRAMER_C[0] * a_k + _CRAMER_C[1] * b_k, c_k, f"C at order {k}, singular system")
        _consistent(_CRAMER_D[0] * a_k + _CRAMER_D[1] * b_k, d_k, f"D at order {k}, singular system")
        c_list.append(c_k)
        d_list.append(d_k)
    # every lift factor is positive, so C_2k has the sign of Y_k
    signs = tuple((v > 0) - (v < 0) for v in y)
    return CriticalConstants(G=G, Y=tuple(y), C=tuple(c_list), D=tuple(d_list), signs=signs)


def _amplitude_ratio(y: int, g: int) -> tuple[int, int]:
    """K_2g = 6 3^(1/4) C_2g / (Gamma((5g-1)/2) u_c^g) as (num, den) in lowest terms,
    over sqrt(6 pi) for even g, from y = Y_g: with C_2g = Y_g beta^(1-g) / (18 576^g) and
    u_c = 3^(1/4)/18, K_2g = Y_g 6^((1-g)/2) / (3 32^g Gamma((5g-1)/2)), where Gamma is
    ((5g-3)/2)! for odd g and, for even g, (2n)! sqrt(pi) / (4^n n!) at n = 5g/2 - 1
    (-2 sqrt(pi) at g = 0), so the sqrt(6) / sqrt(pi) left over is 1/sqrt(6 pi)."""
    if g % 2:
        num, den = y, 3 * 32**g * 6 ** ((g - 1) // 2) * factorial((5 * g - 3) // 2)
    elif g:
        n = 5 * g // 2 - 1
        num, den = 2 * y * 4**n * factorial(n), 32**g * 6 ** (g // 2) * factorial(2 * n)
    else:
        num, den = -y, 1
    d = gcd(num, den)
    return num // d, den // d


@cache
def _sqrt_6pi(prec: int):
    """sqrt(6 pi) as mp.sqrt(6 * mp.pi) gives it at prec bits, computed once per prec."""
    from mpmath import mp, workprec

    with workprec(prec):
        return mp.sqrt(6 * mp.pi)


def compute_K(consts: CriticalConstants, g: int, precision: int) -> BigFloat:
    """Leading large-size amplitude of the genus-g count coefficients: ``_amplitude_ratio``
    at precision + 10 digits, as mp.mpf(num) / den rounds it there (num rounded, then
    one division), over sqrt(6 pi) at that precision for even g."""
    from mpmath import mp
    from mpmath.libmp import dps_to_prec, from_int, mpf_div, round_nearest

    if not 0 <= g <= consts.G:
        raise ValueError(f"genus {g} outside computed range 0..{consts.G}")
    num, den = _amplitude_ratio(consts.Y[g], g)
    prec = dps_to_prec(precision + 10)
    v = mpf_div(from_int(num, prec, round_nearest), from_int(den), prec, round_nearest)
    if g % 2 == 0:
        v = mpf_div(v, _sqrt_6pi(prec)._mpf_, prec, round_nearest)
    return BigFloat(mp.make_mpf(v), precision)


def log_count_estimate(g: int, j: int, precision: int):
    """ln of K_2g (2j)! j^((5g-7)/2) u_c^(-2j), as an mpf at working precision.

    K_2g is ``compute_K`` on the critical constants through genus g.
    """
    from mpmath import mp

    k = compute_K(run_C_recursion(g), g, precision + 20).value
    with mp.workdps(precision + 20):
        ln_uc = mp.log(critical_coupling(precision + 20))
        return mp.log(k) + mp.loggamma(2 * j + 1) + mp.mpf(5 * g - 7) / 2 * mp.log(j) - 2 * j * ln_uc


def count_vs_estimate(g: int, j: int, f_exact: Fraction, precision: int) -> BigFloat:
    """Ratio of an exact count to its asymptotic estimate (log-space throughout)."""
    from mpmath import mp

    with mp.workdps(precision + 20):
        ln_f = mp.log(mp.mpf(f_exact.numerator)) - mp.log(mp.mpf(f_exact.denominator))
        return BigFloat(mp.exp(ln_f - log_count_estimate(g, j, precision)), precision)


# -- Painleve I consistency --------------------------------------------------


# The source's rescaling to Painleve I in standard form, Y'' = 6 Y^2 + tau,
# has t = -c tau and lambda = 2^(3/10) 3^(5/4) on the amplitude function,
# with c = 2^(-3/5).  Its constants are taken as given, not derived: they
# enter only through c^2/lambda = 2^(-3/2) 3^(-5/4) = 1/(6 beta) and
# lambda c^3 = 2^(-3/2) 3^(5/4) = 3 beta/4, both in the field (their product
# is c^5 = 1/8).  Substituting t = gamma tau, y = alpha Y literally into
# y'' = q (y^2 - C_0^2 t) would instead need gamma^5 = -6/(q C_0)^2, about
# -1/748, not -1/8.
_C2_OVER_LAMBDA = 1 / (6 * BETA)
_LAMBDA_C3 = 3 * BETA / 4


class PainleveReport(NamedTuple):
    """Termwise substitution of y(t) = sum C_2g t^((1-5g)/2) into y'' = q (y^2 - C_0^2 t)."""

    q: Qbeta  # unique coefficient fixed by the leading order
    orders_verified: int  # higher orders checked to vanish exactly
    q_over_inv_8mu: Qbeta  # q / (1/(8 mu)), mu = beta^3/3456 the recursion normalization


def painleve_check(consts: CriticalConstants, G: int) -> PainleveReport:
    """Verify the amplitude recursion is a Painleve-I series, exactly in Q(beta).

    Matching t^((2-5s)/2): C_{2(s-1)} (25(s-1)^2 - 1)/4 = q sum_{a+b=s} C_2a C_2b.
    s = 1 fixes q; s = 2..G must then vanish identically or the recursion is
    inconsistent.  The recursion's normalization nu = 3 beta^3/4 must equal
    -1/(2 C_0).  Two identities then check the recursion against the
    source's standard-form constants (c, lambda), taken as given, with the
    recursion's coefficient q C_0 = 1/(8 mu) = 36 beta:
    (c^2/lambda) q C_0 = 6 and (lambda c^3) q C_0^3 = 1.  They do not derive
    the rescaling: substituting t = gamma tau, y = alpha Y literally into
    y'' = q (y^2 - C_0^2 t) gives Y'' = 6 Y^2 + tau only for
    gamma^5 = -6/(q C_0)^2, about -1/748, not -c^5 = -1/8.  Every check is an
    identity in the field, and a failed one raises ``ArithmeticError``.
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
    _consistent(_CRAMER_UNIT * 54, Qbeta.rational(-1) / (2 * c[0]), "nu = -1/(2 C_0)")
    qc0 = q * c[0]
    _consistent(_C2_OVER_LAMBDA * qc0, Qbeta.rational(6), "standard form (c^2/lambda) q C_0 = 6")
    _consistent(_LAMBDA_C3 * qc0 * c[0] * c[0], Qbeta.rational(1), "standard form (lambda c^3) q C_0^3 = 1")
    return PainleveReport(q=q, orders_verified=verified, q_over_inv_8mu=q * _CRAMER_UNIT / 6)
