from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import pytest
from mpmath import libmp, mp, workdps

from cubicmaps.cli import main
from cubicmaps.critical import critical_coupling
from cubicmaps.equilibrium import (
    _PHI_GUARD,
    _tail_samples,
    endpoint_series,
    phi_check,
    solve_endpoints,
)
from cubicmaps.precision import agreement_digits, as_mp
from oracles import _sqrt_r, density_at, g0_coefficient, h_power_coefficient, re_phi_terms, series_value


def test_zero_coupling_is_semicircle():
    eq = solve_endpoints(0, precision=30)
    assert (eq.x, eq.y, eq.a, eq.b) == (0, 2, -2, 2)
    with workdps(40):
        val = density_at(eq, 0)
        assert agreement_digits(val.real, 1 / mp.pi) > 28
        assert abs(val.imag) < mp.mpf(10) ** -28


def test_series_match_known_terms():
    X, Y = endpoint_series(4)
    # x(u) = 6u + 324u^3 + 31104u^5 + ..., y(u) = 2 + 36u^2 + 2916u^4 + ...
    assert X.coefficient(0) == 6
    assert X.coefficient(1) == 324
    assert X.coefficient(2) == 31104
    assert Y.coefficient(0) == 2
    assert Y.coefficient(1) == 36
    assert Y.coefficient(2) == 2916


def test_series_satisfy_defining_relations():
    X, Y = endpoint_series(8)
    q2 = X * X
    cubic = (q2 * X).shift(2) * 18 - q2.shift(1) * 9 + X - 6
    assert cubic.is_zero()
    hw = Y * Y * (1 - X.shift(1) * 6) - 4
    assert hw.is_zero()


def test_endpoint_series_match_lagrange_burmann():
    # X = b0/w and Y = 2 sqrt(g0/w) come from the hierarchy's leading pair;
    # the oracle is the closed form of the powers of H = g0/w, which shares
    # nothing with its term ratio: X_n = -[w^(n+1)] H^(-1)/6, Y_n = 2 [w^n] H^(1/2)
    X, Y = endpoint_series(20)
    for n in range(21):
        assert X.coefficient(n) == -h_power_coefficient(-1, n + 1) / 6, n
        assert Y.coefficient(n) == 2 * h_power_coefficient(Fraction(1, 2), n), n
    # and at alpha = 1 the closed form is g0/w itself
    assert all(h_power_coefficient(1, n) == g0_coefficient(n + 1) for n in range(21))


def test_numeric_root_matches_series():
    u = mp.mpf("0.05")
    eq = solve_endpoints(u, precision=40)
    X, _ = endpoint_series(6)
    with workdps(50):
        partial = u * series_value(X, u * u)
        # remainder bounded by the first omitted term (positive coefficients, u well inside)
        omitted = 2 * abs(X.coefficient(6)) * u ** 13
        assert abs(eq.x - partial) < omitted
    # exact cubic residual small relative to precision
    with workdps(60):
        r = ((18 * u * u * eq.x - 9 * u) * eq.x + 1) * eq.x - 6 * u
        assert abs(r) < mp.mpf(10) ** -30


def test_branch_continuity_small_steps():
    prev = mp.mpf(0)
    for k in range(1, 8):
        u = critical_coupling(30) * k / 10
        x = solve_endpoints(u, precision=30).x
        assert x > prev  # x increases along the physical branch
        prev = x


def test_critical_endpoints_exact():
    dps = 45
    uc = critical_coupling(dps)
    eq = solve_endpoints(uc, precision=dps)
    assert eq.critical
    with workdps(dps + 5):
        t34 = mp.root(3, 4) ** 3  # 3^(3/4)
        a_exact = t34 - mp.root(3, 4) * 3  # 3^(3/4) - 3^(5/4)
        b_exact = t34 + mp.root(3, 4)
        assert agreement_digits(eq.a, a_exact) > 35
        assert agreement_digits(eq.b, b_exact) > 35
        assert agreement_digits(eq.z0, eq.b) > 30


def _endpoint_oracle_couplings(dps):
    """u_c (1 - 10^-k) for every k short of the critical band, u^2 = (1 +- 10^-6)/720, then
    1e-30, 1/1000, 1/60..1/14."""
    with workdps(dps + 20):  # the precision solve_endpoints reads u at
        uc = critical_coupling(dps + 20)
        near = [uc * (1 - mp.mpf(10) ** -k) for k in range(1, dps - 8)]
        switch = [mp.sqrt((1 + s * mp.mpf(10) ** -6) / 720) for s in (-1, 1)]
        return near + switch + [mp.mpf("1e-30"), mp.mpf(1) / 1000] + [mp.mpf(1) / d for d in range(14, 61)]


@pytest.mark.parametrize("dps", [30, 40, 50, 60])
def test_solve_endpoints_matches_polyroots(dps):
    # mp.polyroots (Durand-Kerner) as the oracle for the leading-slice
    # solver, on 18 X^3 - 9 X^2 + X - 6 u^2 with x = X/u, whose roots 6u^2,
    # ~1/6, ~1/3 stay O(1) however small u is, and y = 2/sqrt(1 - 6ux); the
    # couplings include u^2 = (1 +- 10^-6)/720 and 1e-30; the k nearest
    # the critical band, 21, 31, 41 and 51, is where the root sits next to the
    # slice's double root; measured at least 41.4, 47.7, 57.0 and 66.6 digits
    # at dps 30, 40, 50 and 60 (with 20 fixed guard digits, dps 60 holds only
    # 56.8 at k = 51)
    for u in _endpoint_oracle_couplings(dps):
        eq = solve_endpoints(u, precision=dps)
        assert not eq.critical
        with workdps(dps + 40):
            roots = mp.polyroots([18, -9, 1, -6 * u * u], maxsteps=200, extraprec=80)
            want = min(r.real for r in roots if r.imag == 0) / u
            assert agreement_digits(eq.x, want) >= dps, u
            assert agreement_digits(eq.y, 2 / mp.sqrt(1 - 6 * u * want)) >= dps, u


def test_fraction_coupling_reads_as_its_mp_value():
    # a Fraction is read at the solver's working precision, precision + 20
    with workdps(50):
        u = as_mp(Fraction(1, 20))
    assert solve_endpoints(Fraction(1, 20), 30) == solve_endpoints(u, 30)


def test_supercritical_rejected():
    with pytest.raises(ValueError):
        solve_endpoints(mp.mpf("0.08"), precision=30)


def test_one_cut_gap_closes_monotonically():
    uc = critical_coupling(30)
    gaps = []
    for frac in ("0.3", "0.6", "0.9", "0.99"):
        eq = solve_endpoints(uc * mp.mpf(frac), precision=30)
        gaps.append(eq.z0 - eq.b)
        assert eq.z0 > eq.b
    assert gaps == sorted(gaps, reverse=True)


def test_discriminant_positive_on_grid():
    uc = critical_coupling(30)
    with workdps(40):
        for k in range(1, 20):
            u = (uc - mp.mpf(10) ** -3) * k / 19
            disc = 9 * u * u * (1 - 34992 * u**4)
            if u > 0:
                assert disc > 0
            eq = solve_endpoints(u, precision=30)
            assert abs(1 - 6 * u * eq.x) > mp.mpf(10) ** -6


@pytest.mark.parametrize("u", ["0", "0.02", "0.0657", "critical"])
def test_resolvent_is_one_over_z_at_infinity(u):
    # omega(z) = (V'(z) - h(z) sqrt((z-a)(z-b)))/2 is the Stieltjes transform
    # of the density, so its Laurent series at infinity is 1/z + O(z^-2): the
    # solver's endpoints must cancel the z and z^0 terms that V' alone
    # carries and leave exactly 1/z.  The coefficients come from the
    # trapezoidal rule on |z| = 64, which aliases in only (|b|/64)^64.
    # Measured: at most 1.3e-58 off, except the z^0 term at the critical flag,
    # 4.8e-42, where the double root is that of the exact u_c and the input
    # is u_c rounded to the solver's 40 digits
    precision = 40
    eq = solve_endpoints(critical_coupling(precision) if u == "critical" else mp.mpf(u), precision)
    assert eq.critical == (u == "critical")
    radius, points = 64, 64
    with workdps(precision + 20):
        zs = [radius * mp.expjpi(2 * mp.mpf(k) / points) for k in range(points)]
        omega = [(z - 3 * eq.u * z * z - (1 - 3 * eq.u * eq.x - 3 * eq.u * z) * _sqrt_r(z, eq.a, eq.b)) / 2
                 for z in zs]
        coeff = {n: mp.fsum(w * z ** -n for w, z in zip(omega, zs)) / points for n in (1, 0, -1)}
        assert abs(coeff[1]) < mp.mpf(10) ** -precision
        assert abs(coeff[0]) < mp.mpf(10) ** -precision
        assert abs(coeff[-1] - 1) < mp.mpf(10) ** -precision
    if eq.z0 != mp.inf:  # h has its extra zero at z0 = 1/(3u) - x
        assert abs(density_at(eq, eq.z0)) < mp.mpf(10) ** -30


def test_phi_positivity_and_growth():
    eq = solve_endpoints(mp.mpf("0.05"), precision=40)
    rep = phi_check(eq, samples=12, zmax=100.0)
    assert rep.all_positive, rep.violations
    assert all(p["re_phi"].value > 0 for p in (rep.min_left, rep.min_gap, rep.min_ray))
    assert {p["re_phi"].dps for p in (rep.min_left, rep.min_gap, rep.min_ray)} == {eq.dps}
    # the integrand's cubic growth term is -u/2 z^3; the fit should land near it
    assert rep.vs_half_u.value < 0.25 and rep.vs_half_u.dps == eq.dps
    # specific sampled points from the contract
    mid = (eq.b + eq.z0) / 2
    assert abs(rep.min_gap["z"].value - mid) < (eq.z0 - eq.b)


def test_phi_rejects_zero_coupling():
    eq = solve_endpoints(0, precision=30)
    with pytest.raises(ValueError):
        phi_check(eq, 12, 100.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 1}, "samples must be >= 2"),
    ({"samples": 0}, "samples must be >= 2"),
    ({"samples": -3}, "samples must be >= 2"),
    ({"zmax": math.nan}, "zmax must be finite and positive"),
    ({"zmax": math.inf}, "zmax must be finite and positive"),
    ({"zmax": -1.0}, "zmax must be finite and positive"),
], ids=["samples-1", "samples-0", "samples-neg", "zmax-nan", "zmax-inf", "zmax-neg"])
def test_phi_check_rejects_bad_sampling(kwargs, message):
    # the library call states what the CLI's --samples and --zmax checks state;
    # samples=1 and a nan or infinite zmax used to raise ZeroDivisionError
    eq = solve_endpoints(Fraction(1, 20), 40)
    with pytest.raises(ValueError, match=message):
        phi_check(eq, **{"samples": 12, "zmax": 100.0, **kwargs})


def _fixed_tails(eq):
    """phi_check's fixed-point (left, gap, ray) samples at the CLI's defaults (12 samples,
    zmax 100, or 4 z0 past 25), and their fraction bits."""
    with workdps(eq.dps + 15):
        bits = mp.prec + _PHI_GUARD
        return _tail_samples(eq, 12, max(100.0, float(4 * eq.z0)), bits), bits


def _decode(sample, bits):
    """(z, Re phi) at the current precision from a fixed-point sample (Re z, Im z, Re phi)."""
    zr, zi, re_phi = (mp.mpf((v, -bits)) for v in sample)
    return (mp.mpc(zr, zi) if zi else zr), re_phi


def _phi_points(eq):
    """The same samples as (z, Re phi) lists at phi_check's working precision."""
    tails, bits = _fixed_tails(eq)
    with workdps(eq.dps + 15):
        return [[_decode(p, bits) for p in pts] for pts in tails]


@pytest.mark.parametrize("dps", [40, 100, 200])
@pytest.mark.parametrize("u", ["1e-300", "1e-30", "1/1000", "1/14", "critical"])
def test_fixed_point_samples_match_closed_form(u, dps):
    # every left, gap and ray sample of the fixed-point route against the same
    # closed form in mpf at dps + 30, to dps + 5 digits of the largest of its
    # four terms, so a cancelling gap minimum is held to its real error.  u
    # enters through its exact mantissa: held as a fixed-point value, 1e-300
    # would drop the cubic term, which is the largest term far out on the ray.
    # Measured: at least dps + 20.3 digits
    eq = solve_endpoints(critical_coupling(dps) if u == "critical" else Fraction(u), dps)
    tails, bits = _fixed_tails(eq)
    assert [len(pts) for pts in tails] == [12, 0 if u == "critical" else 12, 12]
    with workdps(dps + 30):
        for pts in tails:
            for sample in pts:
                z, re_phi = _decode(sample, bits)
                terms = re_phi_terms(eq, z)
                err = abs(re_phi - mp.fsum(terms))
                assert err <= mp.mpf(10) ** -(dps + 5) * max(abs(v) for v in terms), (z, re_phi)


def test_phi_check_takes_one_log_per_sample(monkeypatch):
    # each sample pays one mpf_log, and phi_check one more for log y; each left
    # or gap sample one isqrt, each ray sample three (|w| and Re S of its root,
    # and |z| for the growth fit), the setup two (sqrt 3 and the ray's edge).
    # Nothing in the call takes an mpf square root or hypot or an mpc product
    calls = {"log": 0, "isqrt": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # equilibrium imports mpf_log from mpmath.libmp in the function that uses it, at each call
    monkeypatch.setattr(libmp, "mpf_log", counted("log", libmp.mpf_log))
    monkeypatch.setattr(math, "isqrt", counted("isqrt", math.isqrt))
    banned = {"mpf_sqrt", "mpf_hypot", "mpc_sqrt", "mpc_abs", "mpc_mul", "mpc_mul_mpf", "mpc_mul_int"}
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in banned:
            seen.append(frame.f_code.co_name)

    for u in (Fraction(1, 30), critical_coupling(40)):
        eq = solve_endpoints(u, 40)
        calls.update(log=0, isqrt=0)
        sys.setprofile(profile)
        try:
            rep = phi_check(eq, 12, 100.0)
        finally:
            sys.setprofile(None)
        gap = 0 if eq.critical else 12
        assert calls == {"log": 12 + gap + 12 + 1, "isqrt": 12 + gap + 3 * 12 + 2}, u
        assert seen == [] and rep.all_positive


def test_phi_check_at_critical_coupling_has_an_empty_gap(capsys):
    # z0 meets b at u_c: the gap (b, z0) is empty, so nothing is sampled there
    eq = solve_endpoints(critical_coupling(40), precision=40)
    assert eq.critical
    rep = phi_check(eq, 12, 100.0)
    assert rep.min_gap is None
    assert not [v for v in rep.violations if v["segment"] == "gap"]
    assert rep.all_positive, rep.violations
    assert rep.min_left["re_phi"].value > 0 and rep.min_ray["re_phi"].value > 0
    assert main(["equilibrium", "--u", "0.0731152229418051367121788278776110586200038106"]) == 0
    out = capsys.readouterr().out
    phi = json.loads(out)["phi_report"]
    assert '"min_gap": null' in out and phi["min_gap"] is None
    assert phi["all_positive"] is True and phi["violations"] == []


def _phi_by_tanh_sinh(eq, left, gap, ray):
    """Re phi at the same sample points, integrating dphi along each tail with mp.quad."""
    u, x, a, b, z0 = eq.u, eq.x, eq.a, eq.b, eq.z0
    c0 = 1 - 3 * u * x

    def dphi(s):
        return _sqrt_r(s, a, b) * (c0 - 3 * u * s) / 2

    def walk(start, phi, points):
        out = []
        for z, _ in points:
            phi += mp.quad(dphi, [start, z])
            out.append(mp.re(phi))
            start = z
        return out

    return walk(a, 0, left), walk(b, 0, gap), walk(z0, mp.quad(dphi, [b, z0]), ray)


@pytest.mark.parametrize(
    "u, precision",
    [(Fraction(1, 60), 40), (Fraction(1, 20), 40), (Fraction(1, 14), 40), (Fraction(1, 20), 100)],
    ids=["1/60-40", "1/20-40", "1/14-40", "1/20-100"],
)
def test_phi_closed_form_matches_quadrature(u, precision):
    # the antiderivative against tanh-sinh quadrature of the integrand itself,
    # at every left, gap and ray sample that phi_check takes at its defaults
    eq = solve_endpoints(u, precision)
    left, gap, ray = _phi_points(eq)
    with workdps(precision + 30):
        quads = _phi_by_tanh_sinh(eq, left, gap, ray)
        for pts, ref in zip((left, gap, ray), quads):
            for (z, re_phi), want in zip(pts, ref):
                assert agreement_digits(re_phi, want) >= precision + 5, (z, re_phi, want)


# printed values a fixed 48-node Gauss-Legendre rule per panel got wrong: min_ray
# to 9 significant digits at the critical coupling (the first ray panel starts at
# the (z - b)^(3/2) point), min_ray to 98 and the growth fit to 80.5 at precision 100
@pytest.mark.parametrize("u, precision", [
    ("0.0731152229418051367121788278776110586200038106", 40),
    ("1/20", 100),
], ids=["critical-40", "1/20-100"])
def test_printed_phi_values_carry_their_dps(capsys, u, precision):
    assert main(["equilibrium", "--u", u, "--precision", str(precision)]) == 0
    phi = json.loads(capsys.readouterr().out)["phi_report"]
    eq = solve_endpoints(Fraction(u), precision)
    _, _, ray = _phi_points(eq)
    with workdps(precision + 40):
        _, _, quad = _phi_by_tanh_sinh(eq, [], [], ray)

        def nearest(target):
            return min(range(len(ray)), key=lambda i: abs(abs(ray[i][0]) - target))

        hi, lo = nearest(50), nearest(25)
        want = {
            "min_ray": min(quad),
            "growth_coefficient": (quad[hi] - quad[lo]) / mp.re(ray[hi][0] ** 3 - ray[lo][0] ** 3),
        }
        got = {"min_ray": phi["min_ray"]["re_phi"], "growth_coefficient": phi["growth_coefficient"]}
        for key, tag in got.items():
            assert agreement_digits(mp.mpf(tag["value"]), want[key]) >= precision - 1, key
