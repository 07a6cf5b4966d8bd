"""Gauss-Legendre node tables and segment integrals."""

import pytest
from mpmath import mp, workdps
from mpmath.calculus.quadrature import GaussLegendre

from cubicmaps.quadrature import gauss_legendre, integrate


@pytest.mark.parametrize("n", [1, 3, 5, 12, 48, 64])
def test_node_table_covers_the_request_and_integrates_one(n):
    with workdps(50):
        nodes = gauss_legendre(n)
        assert len(nodes) >= n
        assert all(-1 < x < 1 and w > 0 for x, w in nodes)
        assert abs(mp.fsum(w for _, w in nodes) - 2) < mp.mpf(10) ** -48


def test_node_table_is_cached_per_precision():
    with workdps(30):
        first = gauss_legendre(48)
        assert gauss_legendre(40) is first
    with workdps(60):
        assert gauss_legendre(48) is not first


@pytest.mark.parametrize("n, dps", [(6, 30), (24, 40), (48, 60)])
def test_segment_rule_is_exact_on_degree_2n_minus_1(n, dps):
    k = 2 * n - 1
    with workdps(dps):
        a, b = mp.mpc(-1, 2) / 3, mp.mpc(2, mp.mpf(1) / 2)
        got = integrate(lambda z: z**k, a, b, n)
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert abs(got - exact) <= abs(exact) * mp.mpf(10) ** (5 - dps)


@pytest.mark.parametrize("dps", [30, 80])
@pytest.mark.parametrize("degree", range(1, 8))
def test_nodes_match_mpmath_rule(degree, dps):
    # mpmath's own Newton-Legendre tables are the reference: same rule sizes,
    # same node order, agreement to the 30 bits kept above working precision
    with workdps(dps):
        ours = gauss_legendre(3 * 2 ** (degree - 1))
        ref = GaussLegendre(mp).calc_nodes(degree, mp.prec + 30)
        tol = mp.mpf(2) ** -(mp.prec + 30)
        assert len(ours) == len(ref)
    with workdps(2 * dps):
        for (x, w), (x_ref, w_ref) in zip(ours, ref):
            assert abs(x - x_ref) <= tol and abs(w - w_ref) <= tol
