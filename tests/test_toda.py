from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp

import cubicmaps.hierarchy as hierarchy
import cubicmaps.series as series
import cubicmaps.toda as toda
from cubicmaps.critical import compute_K, critical_coupling, run_C_recursion
from cubicmaps.hierarchy import build_hierarchy
from cubicmaps.precision import agreement_digits
from cubicmaps.series import TruncatedSeries, VAR_U2, VAR_W
from cubicmaps.toda import (
    count_vs_estimate,
    genus0_closed_form,
    genus1_closed_form,
    genus_table,
    log_count_estimate,
    toda_integrate,
)
from oracles import genus1_hyp_sum, monomial, toda_integrate_lcm_first

# genus 0..2 free-energy heads through u^10
F0_HEAD = [6, 216, 13608, 1119744, Fraction(540416448, 5)]
F2_HEAD = [Fraction(3, 2), 189, 26892, 4076568, Fraction(3213210384, 5)]
F4_HEAD = [0, 0, Fraction(8505, 2), 2217618, Fraction(3905028468, 5)]


def test_free_energy_heads():
    F = genus_table(2, 5).series
    assert [F[0].coefficient(j) for j in range(1, 6)] == F0_HEAD
    assert [F[1].coefficient(j) for j in range(1, 6)] == F2_HEAD
    assert [F[2].coefficient(j) for j in range(1, 6)] == F4_HEAD


def test_leading_term_normalization_guard():
    # window that misses the subtraction terms
    h = build_hierarchy(0, 8)
    tail = TruncatedSeries(VAR_W, 3, h.g_hat[0].coeffs[2:])
    with pytest.raises(ValueError):
        toda_integrate(0, tail)
    # tampered subtraction coefficient
    bad = TruncatedSeries(VAR_W, 1, (1, 35) + h.g_hat[0].coeffs[2:])
    with pytest.raises(ValueError):
        toda_integrate(0, bad)


def test_first_correction_matches_direct_rule():
    # at order one the general rule collapses to c_j / (36 * 3j * (3j+2))
    h = build_hierarchy(1, 10)
    F2 = toda_integrate(1, h.g_hat[1])
    for j in range(1, 11):
        assert F2.coefficient(j) == h.g_hat[1].coefficient(j) / (36 * 3 * j * (3 * j + 2))


def test_integration_rule_at_every_order():
    # the one-denominator integer route against the rule applied term by term
    h = build_hierarchy(3, 12)
    for k in range(4):
        g_hat = h.g_hat[k]
        F = toda_integrate(k, g_hat)
        assert F.known_max == g_hat.known_max + 2 * k - 2
        for j in range(g_hat.offset, g_hat.known_max + 1):
            want = 0 if k == 0 and j <= 2 else g_hat.coefficient(j) * Fraction(
                2, 72 * (3 * j + 6 * k - 4) * (3 * j + 6 * k - 6))
            assert F.coefficient(j + 2 * k - 2) == want


@pytest.mark.parametrize("g, j, coeff, message", [
    (0, 1, Fraction(1, 4), "graph count f(g=0, j=1) = 1/2 is not a nonnegative integer"),
    (0, 2, Fraction(-1, 24), "graph count f(g=0, j=2) = -1 is not a nonnegative integer"),
    (2, 1, Fraction(1, 2), "count f(g=2, j=1) nonzero below the vertex threshold"),
])
def test_genus_table_rejects_bad_counts(monkeypatch, g, j, coeff, message):
    good = genus_table(2, 3).series
    bad = good[g] + monomial(VAR_U2, coeff - good[g].coefficient(j), j, 3)
    integrate = toda.toda_integrate
    monkeypatch.setattr(toda, "toda_integrate", lambda k, ghat: bad if k == g else integrate(k, ghat))
    with pytest.raises(ArithmeticError) as err:
        genus_table(2, 3)
    assert str(err.value) == message


def test_closed_forms_head():
    assert [genus0_closed_form(j) for j in (1, 2, 3)] == [12, 5184, 9797760]
    assert [genus1_closed_form(j) for j in (1, 2, 3)] == [3, 4536, 19362240]


def test_genus1_sum_by_term_ratio_matches_pochhammer_form():
    for j in list(range(1, 61)) + [200]:
        assert toda._genus1_hyp_sum(j) == genus1_hyp_sum(j), j


def test_closed_forms_match_pipeline():
    # every count of the longest expand jobs, genus 0 and 1 through j = 130
    F = genus_table(1, 130).series
    for j in range(1, 131):
        assert genus0_closed_form(j) == F[0].coefficient(j) * factorial(2 * j)
        assert genus1_closed_form(j) == F[1].coefficient(j) * factorial(2 * j)


def test_order_1_forms_no_product_and_no_division(monkeypatch):
    # the certificate of the leading slice takes one product pair, the square
    # H*H; order 1 is in closed form in H and H^2 and takes no product and no
    # division, and with no order past it no anti-diagonal sum T_n is formed
    counted, divisors, taylor_sums = [], [], []
    product_sum, divide, even_taylor_sum = series.product_sum, TruncatedSeries.__truediv__, hierarchy.even_taylor_sum

    def counted_product_sum(terms):
        terms = list(terms)
        counted.append(len(terms))
        return product_sum(terms)

    def counted_divide(self, other):
        if isinstance(other, TruncatedSeries):
            divisors.append(other)
        return divide(self, other)

    def counted_even_taylor_sum(terms):
        taylor_sums.append(terms)
        return even_taylor_sum(terms)

    monkeypatch.setattr(series, "product_sum", counted_product_sum)
    monkeypatch.setattr(hierarchy, "product_sum", counted_product_sum)
    monkeypatch.setattr(TruncatedSeries, "__truediv__", counted_divide)
    monkeypatch.setattr(hierarchy, "even_taylor_sum", counted_even_taylor_sum)
    build_hierarchy(1, 130)
    assert counted == [1]
    assert divisors == []
    assert taylor_sums == []


def _assert_integrates_like_lcm_first(k, ghat):
    new, old = toda_integrate(k, ghat), toda_integrate_lcm_first(k, ghat)
    assert (new.offset, new.known_max) == (old.offset, old.known_max)
    assert (new.numerators, new.denominator) == (old.numerators, old.denominator)


def test_slot_reduction_matches_lcm_first_integration():
    # per-slot gcds before the lcm against one lcm of the unreduced 36 d1 d2
    h = build_hierarchy(8, 60)
    for k in range(9):
        _assert_integrates_like_lcm_first(k, h.g_hat[k])
    # hand-made windows: zero and negative numerators, numerators that share
    # factors with the slot denominators, a zero window, a single slot
    head = (1, 36)
    tails = [(0, -5, Fraction(7, 3), 0, -1), (72, -144, 0, 2**40, -(3**30)), (0, 0, 0), (Fraction(-2, 9),), (0,)]
    for tail in tails:
        _assert_integrates_like_lcm_first(0, TruncatedSeries(VAR_W, 1, head + tail))
        for k in range(1, 9):
            for offset in (1, 2, 5):
                _assert_integrates_like_lcm_first(k, TruncatedSeries(VAR_W, offset, tail))
    # a k = 0 window that ends on the subtraction terms integrates to zero
    _assert_integrates_like_lcm_first(0, TruncatedSeries(VAR_W, 1, head))


@pytest.mark.parametrize("k, ghat, error, message", [
    (1, TruncatedSeries(VAR_W, 0, (1, 2)), ArithmeticError, "double integration hits a resonance at w^0, order 1"),
    (0, TruncatedSeries(VAR_W, 3, (1,)), ValueError, "k = 0 input window must cover the subtraction terms w^1, w^2"),
    (0, TruncatedSeries(VAR_W, 1, (1, 35, 4)), ValueError, "k = 0 subtraction term w^2 is 35, expected 36"),
])
def test_integration_errors_match_lcm_first(k, ghat, error, message):
    for integrate in (toda_integrate, toda_integrate_lcm_first):
        with pytest.raises(error) as err:
            integrate(k, ghat)
        assert str(err.value) == message


def test_coefficient_reads_the_series_over_its_own_denominator():
    t = genus_table(8, 80)
    for (g, j), f in t.counts.items():
        assert t.series[g].coefficient(j) == Fraction(t.counts[g, j], factorial(2 * j)), (g, j)


def test_genus_table_invariants():
    t = genus_table(2, 6)
    assert t.counts[0, 1] == 12
    assert t.counts[2, 1] == 0 and t.counts[2, 2] == 0
    assert t.counts[2, 3] == 3061800
    for (g, j), f in t.counts.items():
        assert isinstance(f, int) and f >= 0
        assert t.series[g].coefficient(j) * factorial(2 * j) == f


def test_asymptotic_ratio_at_j200():
    r0 = count_vs_estimate(0, 200, genus0_closed_form(200), 30)
    r1 = count_vs_estimate(1, 200, genus1_closed_form(200), 30)
    assert abs(r0.value - 1) < 0.02
    assert abs(r1.value - 1) < 0.10


def test_log_count_estimate_reads_K_from_critical():
    consts = run_C_recursion(8)
    j = 50
    with mp.workdps(50):
        ln_uc = mp.log(3) / 4 - mp.log(18)
        rest = mp.loggamma(2 * j + 1) - 2 * j * ln_uc
        for g in range(3, 9):
            ln_k = log_count_estimate(g, j, 30) - rest - mp.mpf(5 * g - 7) / 2 * mp.log(j)
            assert agreement_digits(ln_k, mp.log(compute_K(consts, g, 40).value)) >= 30, g
    # through genus 2 the same bits as the closed forms q (6 pi)^p
    closed = {0: (Fraction(1), Fraction(-1, 2)), 1: (Fraction(1, 48), Fraction(0)), 2: (Fraction(7, 1440), Fraction(-1, 2))}
    for g, (q, p) in closed.items():
        for j in (1, 200, 400):
            with mp.workdps(50):
                ln_uc = mp.log(critical_coupling(50))
                ln_k = mp.log(q.numerator) - mp.log(q.denominator) + p * mp.log(6 * mp.pi)
                want = ln_k + mp.loggamma(2 * j + 1) + mp.mpf(5 * g - 7) / 2 * mp.log(j) - 2 * j * ln_uc
            assert log_count_estimate(g, j, 30) == want
    with pytest.raises(ValueError):
        log_count_estimate(-1, 10, 30)


def test_genus2_asymptotics_extended_horizon():
    # the slowest check in this file: full pipeline to u^800
    F = genus_table(2, 400).series
    f = F[2].coefficient(400) * factorial(800)
    assert f.denominator == 1 and f > 0
    r = count_vs_estimate(2, 400, f, 30)
    assert abs(r.value - 1) < 0.10
