"""Small helpers around mpmath so every numeric result states its precision."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, workdps


class BigFloat(NamedTuple):
    """A computed value together with the decimal precision it was computed at."""

    value: object  # mpf or mpc
    dps: int

    def __str__(self) -> str:
        with workdps(self.dps):
            return mp.nstr(self.value, self.dps)


def rational_to_mp(q: Fraction):
    """Exact-to-working-precision conversion (one rounding, at current dps)."""
    return mp.mpf(q.numerator) / q.denominator


def as_mp(x):
    """An mpmath number from an mpf, mpc, int, float, Fraction or BigFloat; a Fraction is rounded at the current dps."""
    if isinstance(x, BigFloat):
        return mp.mpmathify(x.value)
    if isinstance(x, Fraction):
        return rational_to_mp(x)
    return mp.mpmathify(x)


def agreement_digits(a, b) -> float:
    """Common decimal digits of two scalars: -log10 of the relative difference."""
    a, b = mp.mpmathify(a), mp.mpmathify(b)
    scale = max(abs(a), abs(b))
    if scale == 0:
        return mp.inf
    diff = abs(a - b)
    if diff == 0:
        return mp.inf
    return float(-mp.log10(diff / scale))
