"""Arbitrary-precision Gauss-Legendre quadrature on mpmath's node tables.

mpmath's quad() hides its nodes; the moment pipeline needs to reuse one node
table across hundreds of integrand orders, so the tables come straight from
mpmath's ``GaussLegendre.calc_nodes`` and are cached here, per rule degree and
working precision, for every caller in the package.
"""

from __future__ import annotations

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

_RULE = GaussLegendre(mp)
_cache: dict[tuple[int, int], list] = {}


def gauss_legendre(n: int) -> list:
    """At least n (node, weight) pairs on [-1, 1], exact to the working precision.

    mpmath's degree-d rule carries 3 * 2^(d-1) nodes, so the smallest such
    rule with n or more nodes is returned; its table is computed 30 bits
    above the current working precision.
    """
    degree = 1
    while 3 * 2 ** (degree - 1) < n:
        degree += 1
    key = (degree, mp.prec + 30)
    nodes = _cache.get(key)
    if nodes is None:
        nodes = _cache[key] = _RULE.calc_nodes(*key)
    return nodes


def integrate(f, a, b, n: int):
    """Gauss-Legendre integral of f over the straight segment [a, b] (complex ends allowed)."""
    mid = (a + b) / 2
    half = (b - a) / 2
    acc = 0
    for x, w in gauss_legendre(n):
        acc += w * f(mid + half * x)
    return acc * half
