from fractions import Fraction

import pytest
from mpmath import mp, workdps

from cubicmaps import hierarchy
from cubicmaps.critical import run_C_recursion
from cubicmaps.hierarchy import (
    StringHierarchy,
    build_hierarchy,
    compute_g0_series,
    g0_coefficients,
    order_1_at,
    slice_b0,
    slice_root,
    solve_order_k,
)
from cubicmaps.numbers import BETA, W_CRITICAL
from cubicmaps.precision import agreement_digits, as_mp
from cubicmaps.series import TruncatedSeries, VAR_U2, VAR_V, VAR_W
from oracles import (
    assert_same_series,
    cubic_residual,
    g0_coefficient,
    g2_closed_form,
    g2_closed_form_at,
    g2_coefficient,
    hat_equation_residuals,
    monomial,
    to_u_variable,
)


# leading coefficients 1, 36, 3240, 373248, 48498912 pin the closed form;
# the cubic's linear certificate runs inside compute_g0_series on every call
G0_HEAD = [1, 36, 3240, 373248, 48498912]


def test_g0_closed_form_head():
    assert [g0_coefficient(j) for j in range(1, 6)] == G0_HEAD


def test_g0_term_ratio_matches_gamma_closed_form():
    # the integer term ratio in v, dilated to w, against the Gamma closed form, an independent route
    closed = [g0_coefficient(j) for j in range(1, 201)]
    g0 = compute_g0_series(200)[0].dilate(18, VAR_W)
    assert [g0.coefficient(j) for j in range(1, 201)] == closed
    assert [h * 18**j for j, h in enumerate(g0_coefficients(200))] == closed
    assert g0_coefficients(1) == [1] and g0_coefficients(2) == [1, 2]


def test_g0_series_dual_route():
    g0, b0 = compute_g0_series(33)
    assert g0.offset == 1 and g0.known_max == 33
    assert [g0.dilate(18, VAR_W).coefficient(j) for j in range(1, 6)] == G0_HEAD
    assert b0.offset == 1 and b0.known_max == 32
    with pytest.raises(ValueError):
        compute_g0_series(0)


def test_leading_pair_is_integral_in_v():
    # v = 18 w cancels the 2^(3j) 3^(2j) of the w coefficients: one small
    # denominator each, numerators under half the bits of g0's w coefficients
    g0, b0 = compute_g0_series(134)
    assert (g0.var, b0.var) == (VAR_V, VAR_V)
    assert (g0.denominator, b0.denominator) == (18, 3)
    assert max(abs(x).bit_length() for x in g0.numerators + b0.numerators) <= 440
    assert max(abs(x).bit_length() for x in g0.dilate(18, VAR_W).numerators) > 900


@pytest.mark.parametrize("horizon", [1, 2, 3, 33, 134])
def test_b0_from_certificate_matches_series_division(horizon):
    # b0 = (1 - R)/6 from the certificate against the division route
    # b0 = (g0 - w)/(6 g0) in w, through the horizon and in the same window
    g0, b0 = (s.dilate(18, VAR_W) for s in compute_g0_series(horizon))
    divided = (g0 - monomial(VAR_W, 1, 1, horizon)) / (g0 * 6)
    assert b0 == divided
    assert b0.known_max == horizon - 1


def _perturbed_coefficients(monkeypatch, change):
    original = hierarchy.g0_coefficients
    monkeypatch.setattr(
        hierarchy, "g0_coefficients", lambda n: [change(j, c) for j, c in enumerate(original(n), start=1)]
    )


@pytest.mark.parametrize("perturbed", [1, 2, 17, 33])
def test_g0_series_dual_route_detects_a_wrong_coefficient(monkeypatch, perturbed):
    # one term-ratio numerator in v off by 1: the linear certificate must fail,
    # including at the top of the window, its last certified exponent
    _perturbed_coefficients(monkeypatch, lambda j, c: c + (1 if j == perturbed else 0))
    with pytest.raises(ArithmeticError, match="leading series certificate"):
        compute_g0_series(33)


def test_g0_series_certificate_rejects_the_other_branch(monkeypatch):
    # -H(-v), numerators (-1)^j h_(j-1), also solves 4 v H^3 - H^2 + 1 = 0; only the pin H_0 = 1 rejects it
    _perturbed_coefficients(monkeypatch, lambda j, c: (-1) ** j * c)
    with pytest.raises(ArithmeticError, match="leading series certificate"):
        compute_g0_series(33)


def test_linear_certificate_and_cubic_residual_accept_the_true_series():
    # the linear check inside compute_g0_series and the cubic's residual
    # 1 - H R, the full product it replaced, at every horizon through 200
    for horizon in range(1, 201):
        compute_g0_series(horizon)
        residual = cubic_residual(g0_coefficients(horizon))
        assert residual.is_zero() and residual.known_max == horizon - 1, horizon


def test_linear_certificate_rejects_every_single_change(monkeypatch):
    # each h_i +- 1 with 1 <= i < horizon, and the other branch, fail the
    # linear check at every horizon 2..40; the cubic's residual rejects the
    # same coefficients, so both certify the same cubic through the same window
    original = g0_coefficients
    change = {}
    monkeypatch.setattr(
        hierarchy, "g0_coefficients", lambda n: [c + change.get(i, 0) for i, c in enumerate(original(n))]
    )
    for horizon in range(2, 41):
        true = original(horizon)
        for i in range(1, horizon):
            for delta in (1, -1):
                change.clear()
                change[i] = delta
                with pytest.raises(ArithmeticError, match="leading series certificate"):
                    compute_g0_series(horizon)
                assert not cubic_residual(hierarchy.g0_coefficients(horizon)).is_zero(), (horizon, i, delta)
        change.clear()
        change.update((i, -2 * c) for i, c in enumerate(true) if i % 2 == 0)  # -H(-v): (-1)^(i+1) h_i
        with pytest.raises(ArithmeticError, match="leading series certificate"):
            compute_g0_series(horizon)


def test_g2_coefficient_head():
    assert g2_coefficient(1) == 810
    assert g2_coefficient(2) == 326592


def test_g2_closed_form_matches_residue_sum():
    g2, b2 = g2_closed_form(8)
    for j in range(1, 9):
        assert g2.coefficient(j) == g2_coefficient(j)
    assert b2.coefficient(0) == 54
    assert b2.offset == 0


def test_hierarchy_first_order_matches_closed_form():
    h = build_hierarchy(1, 12)
    g2, b2 = g2_closed_form(12)
    assert_same_series(h.g_hat[1], g2)
    assert_same_series(h.b_hat[1], b2)


def test_second_order_starts_at_w1():
    h = build_hierarchy(2, 10)
    assert h.g_hat[2].valuation() == 1


def test_hat_equations_hold_through_order_three():
    h = build_hierarchy(3, 12)
    for k, eq1, eq2 in hat_equation_residuals(h):
        assert eq1.is_zero(), f"b-equation residual at order {k}: {eq1}"
        assert eq2.is_zero(), f"g-equation residual at order {k}: {eq2}"


def test_hat_equations_hold_at_benchmark_scale():
    # the deepest hierarchy job the benchmark runs, checked by direct O(k^2)
    # substitution against the carried anti-diagonal sums of the build; each
    # derivative costs the residual window two exponents, so the (9, 38) build,
    # whose prefix is the (9, 20) one, is checked through w^20 at every order;
    # (1, 132) is the build behind the longest expand job, checked in w with
    # 1/((2j)! 4^j) weights, apart from the v route of the build
    h20, h38 = build_hierarchy(9, 20), build_hierarchy(9, 38)
    for h in (h20, h38, build_hierarchy(1, 132)):
        for k, eq1, eq2 in hat_equation_residuals(h):
            assert eq1.is_zero(), f"b-equation residual at order {k}: {eq1}"
            assert eq2.is_zero(), f"g-equation residual at order {k}: {eq2}"
            assert min(eq1.known_max, eq2.known_max) >= h.horizon - 2 * k
    for k in range(10):
        assert h20.g_hat[k] == h38.g_hat[k].truncate_to(20)
        assert h20.b_hat[k] == h38.b_hat[k].truncate_to(20)


def test_determinant_is_invertible_unit():
    det = 1 - build_hierarchy(0, 15).g_hat[0] * 108
    assert det.coefficient(0) == 1
    assert det.coefficient(1) == -108
    product = (monomial(VAR_W, 1, 0, det.known_max) / det) * det
    assert_same_series(product, monomial(VAR_W, 1, 0, product.known_max))


def test_u_variable_indexing_and_slope():
    h = build_hierarchy(1, 6)
    g2u = to_u_variable(h, 1, "g")
    assert g2u.var == VAR_U2
    assert g2u.coefficient(2) == 810  # w^1 coefficient lands at u^4
    scaled = to_u_variable(h, 0, "g", s=Fraction(1, 3))
    assert scaled.coefficient(0) == Fraction(1, 3)
    assert scaled.coefficient(1) == 4  # 36 / 3^2


def test_solve_order_k_rejects_bad_prefixes():
    h = build_hierarchy(1, 6)
    det = 1 - h.g_hat[0] * 108
    with pytest.raises(ValueError):
        solve_order_k([], [], det, [])
    with pytest.raises(ValueError):
        solve_order_k([h.g_hat[0]], [], det, [h.b_hat[0]])
    with pytest.raises(ValueError):
        solve_order_k([h.g_hat[0]], [h.b_hat[0]], det, [])


@pytest.mark.parametrize("max_k, horizon", [(0, 5), (1, 12), (9, 20), (3, 40)])
def test_build_hierarchy_divides_once_per_order(monkeypatch, max_k, horizon):
    # the leading slice and order 1, in closed form, need no division; each
    # order k >= 2 one, by the determinant
    divisors = []
    original = TruncatedSeries.__truediv__

    def counted(self, other):
        divisors.append(other)
        return original(self, other)

    monkeypatch.setattr(TruncatedSeries, "__truediv__", counted)
    h = build_hierarchy(max_k, horizon)
    assert len(divisors) == max(max_k - 1, 0)
    det = 1 - h.g_hat[0] * 108
    assert all(d.truncate_to(horizon).dilate(18, VAR_W) == det for d in divisors)


@pytest.mark.parametrize("max_k, horizon", [(1, h) for h in (1, 2, 5, 40, 132)] + [(k, 40) for k in (0, 2, 3)])
def test_build_hierarchy_windows_end_at_the_horizon(max_k, horizon):
    # every order of g_hat and b_hat is exact through w^horizon and cut there
    h = build_hierarchy(max_k, horizon)
    assert len(h.g_hat) == len(h.b_hat) == max_k + 1
    assert all(s.var == VAR_W and s.known_max == horizon for s in h.g_hat + h.b_hat)


def _generic_order_1(pad):
    """solve_order_k's k = 1 step on the leading pair padded to v^pad: the reference for the closed form."""
    g0, b0 = compute_g0_series(pad)
    return solve_order_k([g0], [b0], 1 - g0 * 108, [b0])


@pytest.mark.parametrize("max_k", range(1, 10))
def test_order_1_closed_form_matches_the_generic_step(monkeypatch, max_k):
    # series equality is offset, numerators and denominator, so known_max agrees
    if max_k == 1:
        # order 1 as the build hands it out, against the generic step cut and dilated alike
        for horizon in range(1, 141):
            g1, b1, _ = _generic_order_1(horizon + 2)
            h = build_hierarchy(1, horizon)
            assert (h.g_hat[1], h.b_hat[1]) == tuple(s.truncate_to(horizon).dilate(18, VAR_W) for s in (g1, b1))
        return
    # later orders read order 1 and T_1 past the horizon: the build must not
    # change when the closed forms give way to the generic step's members
    for horizon in (1, 2, 3, 8, 20):
        want = build_hierarchy(max_k, horizon)
        g1, b1, _ = _generic_order_1(horizon + 2 * max_k)
        monkeypatch.setattr(hierarchy, "_order_1", lambda form, H, h4: g1 if form is hierarchy.G1_FORM else b1)
        assert build_hierarchy(max_k, horizon) == want
        monkeypatch.undo()


def test_order_1_pole_amplitudes_match_the_critical_recursion():
    # 1 - 108 v^2 = 108 (v_c - v)(v_c + v) = 3888 v_c (w_c - w) at w -> w_c,
    # and H tends to sqrt(3) there, so the (w_c - w)^-2 amplitude of each
    # member is its numerator at (v_c, sqrt(3)) over (3888 v_c)^2, exactly in Q(beta)
    crit = run_C_recursion(1)
    v, h = 18 * W_CRITICAL, BETA**2 / 2
    scale = (3888 * v) ** 2
    assert hierarchy._form_at(hierarchy.G1_FORM, v, h) / scale == crit.C[1] == Fraction(1, 5184)
    assert hierarchy._form_at(hierarchy.B1_FORM, v, h) / scale == crit.D[1] == BETA**2 / 1728  # sqrt(3)/864


def test_slice_functions_match_series():
    # b0 and order 1 at a point: against the series at w = 1/2000, and against
    # the det^4 forms at 120 digits from the unrounded point, on the continued branch
    h = build_hierarchy(1, 40)
    with workdps(60):
        w = mp.mpf(1) / 2000

        def tail_sum(series):
            return mp.fsum(
                as_mp(series.coefficient(j)) * w ** j
                for j in range(series.offset, 41)
            )

        g0_ref = tail_sum(h.g_hat[0])
        H = slice_root(w, g0_ref / w)
        g1, b1 = order_1_at(H, w)
        b0 = slice_b0(H, w)
        assert abs(w * H - g0_ref) < mp.mpf("1e-40")
        assert abs(g1 - tail_sum(h.g_hat[1])) / abs(g1) < mp.mpf("1e-25")
        assert abs(b0 - tail_sum(h.b_hat[0])) / abs(b0) < mp.mpf("1e-25")
        assert abs(b1 - tail_sum(h.b_hat[1])) / abs(b1) < mp.mpf("1e-25")
    with workdps(120):
        w_c = 1 / mp.sqrt(34992)
        points = {"1e-200": mp.mpf("1e-200"), "1/2000": mp.mpf(1) / 2000, "1/256": mp.mpf(1) / 256,
                  "wc-": w_c * (1 - mp.mpf("1e-6")), "wc+": w_c * (1 + mp.mpf("1e-6")),
                  "1/150": mp.mpf(1) / 150, "1/100": mp.mpf(1) / 100}
    for name, w_exact in points.items():
        # rounding w to 40 digits moves 1 - 108 v^2 by about 1e-40/(1 - w/w_c) relative, whichever
        # form reads the double pole: measured 34.7 and 35.0 digits next to w_c, at least 40.4 elsewhere
        floor = 34 if name.startswith("wc") else 40
        for near in (1, 1j, -1j):  # the continued branch, and both members of the complex pair past w_c
            with workdps(40):
                w = +w_exact
                H = slice_root(w, near)
                got = order_1_at(H, w)
            with workdps(120):
                want = g2_closed_form_at(slice_root(w_exact, H), w_exact)
            assert min(agreement_digits(a, b) for a, b in zip(got, want)) >= floor, (name, near)


@pytest.mark.parametrize("w_text", ["1e-200", "1/2000"])
def test_order_1_on_the_far_root(w_text):
    # on the far real root, H near 1/(72 w), b_1 reads 54/H for 54 H - 216 v H^2,
    # which cancels there: the unreduced numerator agreed to 0 digits at w = 1e-200
    with workdps(120):
        w_exact = as_mp(Fraction(w_text))
    with workdps(40):
        w = +w_exact
        H = slice_root(w, 1 / (72 * w))
        got = order_1_at(H, w)
    assert H > 1 / (144 * w)
    with workdps(120):
        want = g2_closed_form_at(slice_root(w_exact, H), w_exact)
    assert min(agreement_digits(a, b) for a, b in zip(got, want)) >= 40


@pytest.mark.parametrize("m, i", [(m, i) for m, p in enumerate(hierarchy.B1_FORM) for i in range(len(p))])
def test_every_b1_form_coefficient_reaches_order_1_at(m, i, monkeypatch):
    # one unit added to any coefficient of B1_FORM, the constant of its H^2
    # member included, moves order_1_at's b_1 by v^i H^m / (1 - 108 v^2)^2
    form = [list(p) for p in hierarchy.B1_FORM]
    form[m][i] += 1
    with workdps(60):
        w = mp.mpf(1) / 2000
        H = slice_root(w, 1)
        v = 18 * w
        before = order_1_at(H, w)[1]
        monkeypatch.setattr(hierarchy, "B1_FORM", tuple(map(tuple, form)))
        moved = order_1_at(H, w)[1] - before
        assert agreement_digits(moved, v**i * H**m / (1 - 108 * v * v) ** 2) >= 40
