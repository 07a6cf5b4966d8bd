"""Small helpers around mpmath so every numeric result states its precision.

Each helper imports mpmath when it is called, so a process that needs only
``BigFloat`` from here, as the exact commands do, never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class BigFloat(NamedTuple):
    """A computed value together with the decimal precision it was computed at."""

    value: object  # mpf or mpc
    dps: int


def as_mp(x):
    """An mpmath number from an mpf, mpc, int, float, Fraction or BigFloat; a Fraction is rounded at the current dps."""
    from mpmath import mp

    if isinstance(x, BigFloat):
        return mp.mpmathify(x.value)
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpmathify(x)


def agreement_digits(a, b) -> float:
    """Common decimal digits of two scalars: -log10 of the relative difference."""
    from mpmath import mp

    a, b = mp.mpmathify(a), mp.mpmathify(b)
    scale = max(abs(a), abs(b))
    if scale == 0:
        return mp.inf
    diff = abs(a - b)
    if diff == 0:
        return mp.inf
    return float(-mp.log10(diff / scale))
