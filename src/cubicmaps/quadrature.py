"""Arbitrary-precision Gauss-Legendre quadrature on in-house node tables.

mpmath's quad() hides its nodes; the moment pipeline needs to reuse one node
table across hundreds of integrand orders, so the tables are built here and
cached per rule degree and working precision for every caller in the package.
The rules have mpmath's sizes (3 * 2^(d-1) nodes at degree d) and its node
order.  Each node is a root of the Legendre polynomial, found by Newton's
method on the three-term recurrence in fixed-point integers: a float start,
then one step per rung of a doubling precision ladder, then steps at the
full precision until the step is a few units in the last place.  The weight
comes from the same recurrence, through the derivative at the root.
"""

from __future__ import annotations

import math

from mpmath import mp, workprec
from mpmath.libmp import from_man_exp

_GUARD = 20  # fixed-point bits carried behind each table's precision
_cache: dict[tuple[int, int], list] = {}


def _legendre(x: int, n: int, bits: int) -> tuple[int, int]:
    """P_n(x) by the three-term recurrence and P_n'(x) = n (x P_n - P_(n-1)) / (x^2 - 1).

    Fixed point: x and both results carry `bits` fraction bits.
    """
    p, q = 1 << bits, 0
    for k in range(1, n + 1):
        p, q = ((2 * k - 1) * (x * p >> bits) - (k - 1) * q) // k, p
    return p, (n * ((x * p >> bits) - q) << bits) // ((x * x >> bits) - (1 << bits))


def _float_root(j: int, n: int) -> float:
    # asymptotic start for the j-th largest root, polished by float Newton
    x = math.cos(math.pi * (j - 0.25) / (n + 0.5))
    for _ in range(4):
        p, q = 1.0, 0.0
        for k in range(1, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        x -= p / (n * (x * p - q) / (x * x - 1))
    return x


def _root_and_weight(j: int, n: int, bits: int) -> tuple[int, int]:
    """The j-th largest root of P_n and its weight 2 / ((1 - x^2) P_n'(x)^2), fixed point.

    Newton climbs a doubling ladder of working precisions from the float root,
    one step per rung, then steps at the full `bits` until a step moves the
    root by at most 16 units; the weight takes the derivative of that last step.
    """
    rung = 96
    x = int(_float_root(j, n) * 2.0 ** 53) << (rung - 53)
    for _ in range(64):
        p, dp = _legendre(x, n, rung)
        step = (p << rung) // dp
        x -= step
        if rung < bits:
            x <<= min(2 * rung, bits) - rung
            rung = min(2 * rung, bits)
        elif abs(step) <= 16:
            one = 1 << bits
            return x, (2 << 2 * bits) // (((one - (x * x >> bits)) * dp >> bits) * dp >> bits)
    raise ArithmeticError(f"Newton did not settle on root {j} of P_{n}")


def _table(degree: int, prec: int) -> list:
    if degree == 1:
        with workprec(prec + _GUARD):
            x = mp.sqrt(mp.mpf(3) / 5)
            edge = mp.mpf(5) / 9
            return [(-x, edge), (mp.zero, mp.mpf(8) / 9), (x, edge)]
    bits = prec + _GUARD
    n = 3 * 2 ** (degree - 1)
    nodes = []
    for j in range(1, n // 2 + 1):
        x, w = _root_and_weight(j, n, bits)
        w = mp.make_mpf(from_man_exp(w, -bits))
        nodes.append((mp.make_mpf(from_man_exp(x, -bits)), w))
        nodes.append((mp.make_mpf(from_man_exp(-x, -bits)), w))
    return nodes


def gauss_legendre(n: int) -> list:
    """At least n (node, weight) pairs on [-1, 1], exact to the working precision.

    Rules come in mpmath's sizes, 3 * 2^(d-1) nodes at degree d, so the
    smallest such rule with n or more nodes is returned; its table is
    computed 30 bits above the current working precision.
    """
    degree = 1
    while 3 * 2 ** (degree - 1) < n:
        degree += 1
    key = (degree, mp.prec + 30)
    nodes = _cache.get(key)
    if nodes is None:
        nodes = _cache[key] = _table(*key)
    return nodes


def integrate(f, a, b, n: int):
    """Gauss-Legendre integral of f over the straight segment [a, b] (complex ends allowed)."""
    mid = (a + b) / 2
    half = (b - a) / 2
    acc = 0
    for x, w in gauss_legendre(n):
        acc += w * f(mid + half * x)
    return acc * half
