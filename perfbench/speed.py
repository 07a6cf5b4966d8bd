"""How fast this machine runs Python right now, gauged by a fixed kernel.

On a shared host the same job can take three quarters longer from one
second to the next: each core flips between a fast and a slow state as other
tenants load it, and the share of time spent slow drifts over minutes.  The
benchmark times this kernel twice between every two jobs and scales each
job's time by ``NOMINAL_S`` over the mean of the samples near it: seconds at
the speed the machine has when the kernel takes ``NOMINAL_S``.  A core stays
in one state for a few tenths of a second, so the samples beside a short job
mostly catch the state it ran in (timed that way, a job's time divided by
the kernel's spread about half as much as the job's time alone), while a job
of several seconds runs through many states and is scaled by the samples of
a stretch about three times its length.  The kernel is owned by the
benchmark and never calls cubicmaps, so a faster or slower program moves the
scaled times in full; only the machine's own drift is divided out.

It mixes what the program's time goes into: Fraction series products (the
exact layers), mpmath arithmetic at 50 digits (the finite-N layers) and a
plain integer loop (the census enumeration).
"""

from __future__ import annotations

import time
from fractions import Fraction

from mpmath import mpf, workdps

NOMINAL_S = 0.016  # about the kernel's median time on the 2-core machine of the README baseline

_SERIES = [Fraction(3 * i + 1, 2 * i + 3) for i in range(32)]


def kernel() -> int:
    out = [Fraction(0)] * len(_SERIES)
    for i, a in enumerate(_SERIES):
        for j in range(len(_SERIES) - i):
            out[i + j] += a * _SERIES[j]
    with workdps(50):
        x = mpf(1)
        for i in range(1, 700):
            x = x * mpf(i + 1) / mpf(i) + 1 / x
    s = 0
    for i in range(30000):
        s += i * i % 7
    return out[-1].numerator % 97 + int(x) % 97 + s


def sample() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
