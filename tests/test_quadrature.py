"""Segment integrals on mpmath's Gauss-Legendre rules (`quadrature.integrate`)."""

import pytest
from mpmath import mp, workdps

from cubicmaps.quadrature import integrate


@pytest.mark.parametrize("n, dps", [(6, 30), (24, 40), (48, 60)])
def test_segment_rule_is_exact_on_degree_2n_minus_1(n, dps):
    k = 2 * n - 1
    with workdps(dps):
        a, b = mp.mpc(-1, 2) / 3, mp.mpc(2, mp.mpf(1) / 2)
        got = integrate(lambda z: z**k, a, b, n)
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert abs(got - exact) <= abs(exact) * mp.mpf(10) ** (5 - dps)
