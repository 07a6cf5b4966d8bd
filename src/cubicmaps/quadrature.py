"""Gauss-Legendre integral over one straight segment, on mpmath's node tables.

No module of the package calls it: the contour moments use the trapezoidal
rule (`finite_n`) and `phi_check` a closed-form antiderivative.  It stays
only because the benchmark's tracer (`perfbench/tracing.py`) imports this
module and wraps `integrate` as the span `quadrature.integrate`; the module
goes when the benchmark drops that span.
"""

from __future__ import annotations

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre


def integrate(f, a, b, n: int):
    """Gauss-Legendre integral of f over the straight segment [a, b] (complex ends allowed).

    Takes mpmath's smallest rule with at least n nodes (3 * 2^(d-1) at degree
    d), built 30 bits above the working precision.
    """
    degree = 1
    while 3 * 2 ** (degree - 1) < n:
        degree += 1
    mid = (a + b) / 2
    half = (b - a) / 2
    nodes = GaussLegendre(mp).calc_nodes(degree, mp.prec + 30)
    return mp.fsum(w * f(mid + half * x) for x, w in nodes) * half
