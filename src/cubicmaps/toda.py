"""Genus expansion of the free energy from the recurrence-coefficient hierarchy.

The time-like deformation variable t and the coupling are tied by
72 u^2 = t^(-3/2).  In that variable the free energy satisfies a Toda
equation, and integrating its genus-k term twice (with integration constants
fixed by decay at t -> infinity) turns the order-k w-series g_k, read as
``hierarchy.build_hierarchy(...).g_hat[k]``, into the genus-k free-energy
series F^(2k)(u).  Each w-term c_j contributes

    2 c_j / (72 (3j+6k-4)(3j+6k-6))  at  u^(2(j+2k-2)),

except that for k = 0 the j = 1, 2 terms are the subtracted non-decaying
pieces (the t^(3/2) and log parts) and must be excluded; ``toda_integrate``
refuses a k = 0 window whose w and w^2 coefficients are not exactly 1 and 36.
The resulting coefficients, times (2j)!, are nonnegative integers: they
count connected 3-valent labeled graphs of genus k on 2j vertices.  The
genus-0 and genus-1 closed forms of those counts, and their large-j
estimate from the critical amplitudes, complete the module.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .critical import compute_K, critical_coupling, run_C_recursion
from .hierarchy import build_hierarchy
from .numbers import gamma_exact
from .precision import BigFloat
from .series import VAR_U2, VAR_W, TruncatedSeries, from_numerators, zero_series

# k = 0 subtraction-term coefficients: w and w^2 of the leading series
_SUBTRACTED = {1: Fraction(1), 2: Fraction(36)}


def toda_integrate(k: int, ghat: TruncatedSeries) -> TruncatedSeries:
    """Double-integrate the order-k hierarchy member into F^(2k)(u).

    Input is a w-series; output exponents count powers of u^2.  For k = 0
    the input window must contain the two subtraction terms with their exact
    coefficients 1 and 36, or the decay normalization would be wrong.
    """
    if k < 0:
        raise ValueError("negative expansion order")
    if ghat.var != VAR_W:
        raise ValueError("hierarchy members are w-series")
    if k == 0:
        if ghat.offset > 1 or ghat.known_max < 2:
            raise ValueError("k = 0 input window must cover the subtraction terms w^1, w^2")
        for j, expect in _SUBTRACTED.items():
            if ghat.coefficient(j) != expect:
                raise ValueError(
                    f"k = 0 subtraction term w^{j} is {ghat.coefficient(j)}, expected {expect}"
                )
    # each slot c/den scales by 2 / (72 d1 d2); c/(36 d1 d2) is reduced slot by
    # slot, so the common denominator is the lcm of the reduced ones
    lo = max(ghat.offset, 3) if k == 0 else ghat.offset
    nums, dens = [], []
    for j, c in enumerate(ghat.numerators[lo - ghat.offset :], lo):
        d = 36 * (3 * j + 6 * k - 4) * (3 * j + 6 * k - 6)
        if d == 0:
            raise ArithmeticError(f"double integration hits a resonance at w^{j}, order {k}")
        g = gcd(c, d)
        nums.append(c // g)
        dens.append(d // g)
    known_max = ghat.known_max + 2 * k - 2
    if not dens:
        return zero_series(VAR_U2, known_max)
    common = lcm(*dens)
    nums = [c * (common // d) for c, d in zip(nums, dens)]
    return from_numerators(VAR_U2, lo + 2 * k - 2, nums, ghat.denominator * common)


class GenusCoeffTable(NamedTuple):
    counts: MappingProxyType  # (g, j) -> int, the connected graph count f^(2g)_{2j}
    series: tuple  # F^(0)..F^(2 g_max) through u^(2 j_max)


def genus_table(g_max: int, j_max: int) -> GenusCoeffTable:
    """Tabulate f^(2g)_{2j} for g <= g_max, 1 <= j <= j_max, checking integrality.

    A non-integer or negative entry means the pipeline is broken, so those
    are hard failures rather than recorded values.  ``expand`` prints only
    g_max, but counting every lower genus is its only integrality check on F^(0)..F^(2 g_max - 2).
    """
    series = tuple(toda_integrate(k, s).truncate_to(j_max) for k, s in enumerate(build_hierarchy(g_max, j_max + 2).g_hat))
    counts: dict[tuple[int, int], int] = {}
    for g in range(g_max + 1):
        s = series[g]
        nums, den = s.numerators, s.denominator
        fact = 1  # (2j)!
        for j in range(1, j_max + 1):
            fact *= (2 * j - 1) * 2 * j
            i = j - s.offset
            num = nums[i] * fact if i >= 0 else 0
            f, rem = divmod(num, den)
            if rem or f < 0:
                raise ArithmeticError(
                    f"graph count f(g={g}, j={j}) = {Fraction(num, den)} is not a nonnegative integer"
                )
            if 2 * j < 2 * g and f != 0:
                raise ArithmeticError(f"count f(g={g}, j={j}) nonzero below the vertex threshold")
            counts[(g, j)] = f
    if counts.get((0, 1)) not in (None, 12):
        raise ArithmeticError("f(0, 1) must be 12")
    return GenusCoeffTable(counts=MappingProxyType(counts), series=series)


def genus0_closed_form(j: int) -> Fraction:
    """Planar count: 72^j Gamma(3j/2) (2j)! / (2 Gamma(j+3) Gamma(j/2+1))."""
    if j < 1:
        raise ValueError("counts start at j = 1")
    ratio = gamma_exact(Fraction(3 * j, 2)) / gamma_exact(Fraction(j, 2) + 1)
    return 72**j * factorial(2 * j) * ratio / (2 * factorial(j + 2))


def _genus1_hyp_sum(j: int) -> Fraction:
    """3F2(-j+1, 2, 6; 5, -3j/2+1; 3/2), terminating after j terms.

    Each term follows from the last by the ratio
    t_(m+1)/t_m = (m-j+1)(m+2)(m+6) (3/2) / ((m+5)(m+1-3j/2)(m+1)),
    whose denominator never vanishes for m < j - 1.
    """
    term = acc = Fraction(1)
    for m in range(j - 1):
        term *= Fraction(3 * (m - j + 1) * (m + 2) * (m + 6), (m + 5) * (2 * m + 2 - 3 * j) * (m + 1))
        acc += term
    return acc


def genus1_closed_form(j: int) -> Fraction:
    """Torus count via the terminating hypergeometric sum."""
    if j < 1:
        raise ValueError("counts start at j = 1")
    ratio = gamma_exact(Fraction(3 * j, 2)) / gamma_exact(Fraction(j, 2) + 1)
    prefactor = 5 * 72**j * factorial(2 * j) * ratio / (48 * (3 * j + 2) * factorial(j))
    return prefactor * _genus1_hyp_sum(j)


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
