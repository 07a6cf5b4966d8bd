"""Executable acceptance suite: twelve checks, each with a stated tolerance and budget.

Every check recomputes its target through the public API and compares
against values frozen here (exact integers and rationals, closed-form
constants, or explicit error bounds).  A check passes only if the numbers
agree AND the wall-clock budget holds; anything thrown inside a check is
reported as a failure rather than propagated, so one broken criterion
cannot hide the others.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from math import comb
from typing import NamedTuple

from mpmath import mp, workdps

from .critical import compute_K, count_vs_estimate, critical_coupling, painleve_check, run_C_recursion
from .equilibrium import endpoint_series, solve_endpoints
from .finite_n import build_report, check_asymptotic_expansion, toda_residual
from .numbers import BETA, Qbeta, double_factorial
from .precision import agreement_digits
from .toda import genus0_closed_form, genus1_closed_form, genus_table
from .wick import MAX_VERTICES, census


class CriterionResult(NamedTuple):
    index: int
    key: str
    title: str
    passed: bool
    skipped: bool
    elapsed_s: float
    budget_s: float
    detail: str


def format_line(r: CriterionResult) -> str:
    status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
    return f"criterion {r.index:2d} [{r.key}] {status} ({r.elapsed_s:.1f}s of {r.budget_s:.0f}s) {r.detail}"


_F0 = (Fraction(6), Fraction(216), Fraction(13608), Fraction(1119744), Fraction(540416448, 5))
_F2 = (Fraction(3, 2), Fraction(189), Fraction(26892), Fraction(4076568), Fraction(3213210384, 5))
_F4 = (Fraction(0), Fraction(0), Fraction(8505, 2), Fraction(2217618), Fraction(3905028468, 5))


def _series_check(g: int, expected) -> tuple[bool, str]:
    F = genus_table(g, len(expected)).series[g]
    got = tuple(F.coefficient(j) for j in range(1, len(expected) + 1))
    if got != expected:
        return False, f"F^({2 * g}) coefficients {got} != {expected}"
    return True, f"F^({2 * g}) coefficients of u^2..u^{2 * len(expected)} exact"


def _c_closed_forms():
    # to j = 130 as exact-long prints; BIPZ and the 3F2 share nothing with the hierarchy
    table = genus_table(1, 130)
    for j in range(1, 131):
        if table.counts[0, j] != genus0_closed_form(j):
            return False, f"planar closed form disagrees with the Toda pipeline at j={j}"
        if table.counts[1, j] != genus1_closed_form(j):
            return False, f"genus-1 closed form disagrees with the Toda pipeline at j={j}"
    return True, "closed forms match the Toda pipeline for 1 <= j <= 130, exactly"


# connected counts by genus and disconnected count of the p = 6, 8 and 10 censuses
_CENSUS6 = ({0: 9797760, 1: 19362240, 2: 3061800}, 2237625)
_CENSUS8 = ({0: 45148078080, 1: 164367221760, 2: 89414357760}, 17304485625)
_CENSUS10 = ({0: 392212641300480, 1: 2332019568291840, 2: 2834113460935680, 3: 357485480352000},
             274452202749375)


def _connected_matchings(p: int) -> int:
    """C_p, the connected matchings on p vertices, from M_q = (3q-1)!! alone
    (0 at odd q): the component of vertex 0 has k vertices, so
    M_p = sum_k C(p-1, k-1) C_k M_(p-k), the log of the matching EGF."""
    def m(q):
        return 0 if q % 2 else double_factorial(3 * q - 1)

    c = [0] * (p + 1)
    for q in range(1, p + 1):
        c[q] = m(q) - sum(comb(q - 1, k - 1) * c[k] * m(q - k) for k in range(1, q))
    return c[p]


def _c_oracle():
    frozen = {6: _CENSUS6, 8: _CENSUS8, 10: _CENSUS10}
    g_max = (MAX_VERTICES + 2) // 4
    table = genus_table(g_max, MAX_VERTICES // 2)
    for p in range(2, MAX_VERTICES + 1, 2):
        expected = {g: table.counts[g, p // 2] for g in range(g_max + 1) if table.counts[g, p // 2]}
        cen = census(p)
        if cen.total != double_factorial(3 * p - 1):
            return False, f"p={p}: total {cen.total} != (3p-1)!!"
        observed = {g: c for g, c in cen.connected.items() if c}
        if observed != expected:
            return False, f"p={p}: connected counts {observed} != {expected}"
        if sum(observed.values()) != _connected_matchings(p):
            return False, f"p={p}: {sum(observed.values())} connected != C_p from (3q-1)!!"
        if p in frozen and (cen.connected, cen.disconnected) != frozen[p]:
            return False, f"p={p}: census {cen.connected}, {cen.disconnected} disconnected != frozen {frozen[p]}"
    return True, (f"pairing census matches f(2g, 2j) in genus 0..{g_max} for p=2..{MAX_VERTICES} and the frozen "
                  "p=6,8,10 counts; connected totals C_p and totals (3p-1)!!")


def _c_critical():
    consts = run_C_recursion(2)
    exact = (
        -BETA / 18,
        Qbeta.rational(Fraction(1, 5184)),
        Qbeta((0, 0, 0, Fraction(49, 35831808))),
    )
    for g, want in enumerate(exact):
        if consts.C[g] != want:
            return False, f"C_{2 * g} = {consts.C[g]} != {want}"
    with workdps(60):
        targets = (1 / mp.sqrt(6 * mp.pi), mp.mpf(1) / 48, 7 / (1440 * mp.sqrt(6 * mp.pi)))
        worst = float("inf")
        for g, want in enumerate(targets):
            got = compute_K(consts, g, precision=50)
            worst = min(worst, agreement_digits(got.value, want))
        if worst < 40:
            return False, f"count amplitude agreement only {worst:.1f} digits"
    shown = "beyond the 60-digit check" if worst == float("inf") else f"{worst:.1f} digits"
    return True, f"C_0,C_2,C_4 exact; K_0,K_2,K_4 to 40+ digits ({shown})"


def _c_painleve():
    consts = run_C_recursion(9)
    rep = painleve_check(consts, 8)  # raises if no single q works or nu * (-2 C_0) != 1
    ratio = rep.q_over_inv_8mu
    return True, f"one q through genus 8 ({rep.orders_verified} orders beyond leading); nu*(-2C_0)=1; q/(1/(8mu)) = {ratio}"


def _c_asymptotics():
    j = 200
    dev0 = abs(count_vs_estimate(0, j, Fraction(genus0_closed_form(j)), precision=30).value - 1)
    dev1 = abs(count_vs_estimate(1, j, Fraction(genus1_closed_form(j)), precision=30).value - 1)
    if not dev0 < 0.02:
        return False, f"planar estimate deviation {mp.nstr(dev0, 3)} >= 0.02 at j={j}"
    if not dev1 < 0.10:
        return False, f"genus-1 estimate deviation {mp.nstr(dev1, 3)} >= 0.10 at j={j}"
    return True, f"j={j} deviations {mp.nstr(dev0, 3)} (< 0.02) and {mp.nstr(dev1, 3)} (< 0.10)"


def _c_string():
    rep = build_report(Fraction(1, 10), 20, precision=120)
    bound = mp.mpf(10) ** -90
    worst = rep.max_string_residual.value
    if not worst < bound:
        return False, f"string residual {mp.nstr(worst, 3)} >= 1e-90 on n in [10, 30]"
    return True, f"both string equations hold to {mp.nstr(worst, 3)} (< 1e-90) for n in [10, 30]"


def _c_remainder():
    rep = check_asymptotic_expansion(Fraction(1, 10), [16, 32, 64], precision=80)
    lo, hi = mp.mpf(2) ** mp.mpf("-4.25"), mp.mpf(2) ** mp.mpf("-3.75")
    ratios = [r.value for r in rep.gamma_ratios]
    shown = " and ".join(mp.nstr(r, 4) for r in ratios)
    if not all(lo < r < hi for r in ratios):
        return False, f"remainder ratios {shown} not all inside (2^-4.25, 2^-3.75)"
    # beta's N 16 -> 32 ratio (0.087) is still pre-asymptotic: only 32 -> 64 is held to the band
    beta = rep.entries[2].epsilon_beta.value / rep.entries[1].epsilon_beta.value
    if not lo < beta < hi:
        return False, f"beta remainder ratio {mp.nstr(beta, 4)} at N = 32 -> 64 not inside (2^-4.25, 2^-3.75)"
    return True, (f"gamma^2 remainder shrinks by {shown} per doubling of N = 16, 32, 64, beta by {mp.nstr(beta, 4)} "
                  "from N = 32 to 64 (within N^-3.75..N^-4.25)")


def _c_toda():
    r1 = toda_residual(Fraction(2, 25), 12, Fraction(1, 1000), precision=80).value
    r2 = toda_residual(Fraction(2, 25), 12, Fraction(1, 2000), precision=80).value
    if not r1 < mp.mpf(10) ** -4:
        return False, f"second-difference residual {mp.nstr(r1, 3)} >= 1e-4 at h=1e-3"
    shrink = r1 / r2
    if not 3.5 < shrink < 4.5:
        return False, f"halving h shrinks the residual by {mp.nstr(shrink, 4)}, not ~4"
    return True, f"residual {mp.nstr(r1, 3)} (< 1e-4), shrinks {mp.nstr(shrink, 5)}x at h/2"


def _c_endpoints():
    with workdps(60):
        uc = critical_coupling(60)
        eq = solve_endpoints(uc, precision=40)
        if not eq.critical:
            return False, "critical coupling not flagged"
        a_t = mp.root(27, 4) - mp.root(243, 4)
        b_t = mp.root(27, 4) + mp.root(3, 4)
        # read at 60 digits, the agreement past that is rounding, not accuracy
        digits = min(
            60.0,
            agreement_digits(eq.z0, eq.b),
            agreement_digits(eq.a, a_t),
            agreement_digits(eq.b, b_t),
        )
        if digits < 30:
            return False, f"endpoint agreement only {digits:.1f} digits (< 30)"
    X, Y = endpoint_series(6)  # raises unless the defining cubic closes exactly
    if tuple(X.coefficient(k) for k in range(3)) != (6, 324, 31104):
        return False, "center series coefficients drifted"
    if tuple(Y.coefficient(k) for k in range(3)) != (2, 36, 2916):
        return False, "half-width series coefficients drifted"
    return True, f"z0 = b and closed-form endpoints to {digits:.1f} digits; series exact"


# (key, title, budget in seconds, callable)
CRITERIA = (
    ("genus0", "planar free-energy coefficients", 1.0, partial(_series_check, 0, _F0)),
    ("genus1", "genus-1 free-energy coefficients", 1.0, partial(_series_check, 1, _F2)),
    ("genus2", "genus-2 free-energy coefficients", 1.0, partial(_series_check, 2, _F4)),
    ("closed-forms", "closed-form counts vs Toda pipeline", 1.0, _c_closed_forms),
    ("oracle6", f"pairing census vs counts through p={MAX_VERTICES}", 10.0, _c_oracle),
    ("critical", "exact singular amplitudes and count constants", 1.0, _c_critical),
    ("painleve", "amplitude recursion is Painleve I", 1.0, _c_painleve),
    ("asymptotics", "large-j count estimates", 1.0, _c_asymptotics),
    ("string", "finite-N string-equation residuals", 30.0, _c_string),
    ("remainder", "1/N^2 expansion remainder scaling", 60.0, _c_remainder),
    ("toda", "Toda second difference vs gamma-tilde^2", 20.0, _c_toda),
    ("endpoints", "critical endpoint data and series", 1.0, _c_endpoints),
)

KEYS = tuple(key for key, _, _, _ in CRITERIA)


def run_criterion(key: str) -> CriterionResult:
    for index, (k, title, budget, fn) in enumerate(CRITERIA, start=1):
        if k == key:
            break
    else:
        raise ValueError(f"unknown criterion {key!r}; choose from {', '.join(KEYS)}")
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failed criterion, not a crashed suite
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if ok and elapsed > budget:
        ok, detail = False, f"correct but over budget ({elapsed:.1f}s > {budget:.0f}s); {detail}"
    return CriterionResult(
        index=index, key=key, title=title, passed=ok, skipped=False,
        elapsed_s=elapsed, budget_s=budget, detail=detail,
    )


def run_all(skip) -> list[CriterionResult]:
    unknown = set(skip) - set(KEYS)
    if unknown:
        raise ValueError(f"unknown criterion keys: {', '.join(sorted(unknown))}")
    results = []
    for index, (key, title, budget, _) in enumerate(CRITERIA, start=1):
        if key in skip:
            results.append(CriterionResult(
                index=index, key=key, title=title, passed=True, skipped=True,
                elapsed_s=0.0, budget_s=budget, detail="skipped on request",
            ))
        else:
            results.append(run_criterion(key))
    return results
