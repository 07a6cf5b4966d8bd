"""Exact scalar arithmetic beyond the rationals.

Two ingredients the expansion work needs constantly:

* ``Qbeta`` -- the number field Q[beta] with beta^4 = 12
  (beta = 2^(1/2) * 3^(1/4)), where every critical-region constant lives.
* exact Gamma-function reductions at integer and half-integer arguments,
  so coefficient formulas never touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

_ZERO4 = (Fraction(0),) * 4


def _coerce4(x) -> tuple | None:
    if isinstance(x, Qbeta):
        return x.c
    if isinstance(x, (int, Fraction)):
        return (Fraction(x), Fraction(0), Fraction(0), Fraction(0))
    return None


@dataclass(frozen=True)
class Qbeta:
    """c[0] + c[1]*beta + c[2]*beta^2 + c[3]*beta^3 with beta^4 = 12."""

    c: tuple

    def __post_init__(self) -> None:
        c = tuple(Fraction(x) for x in self.c)
        if len(c) != 4:
            raise ValueError("Qbeta needs exactly 4 rational components")
        object.__setattr__(self, "c", c)

    @staticmethod
    def rational(x) -> "Qbeta":
        return Qbeta((Fraction(x), 0, 0, 0))

    def __bool__(self) -> bool:
        return any(self.c)

    def __add__(self, other):
        o = _coerce4(other)
        if o is None:
            return NotImplemented
        return Qbeta(tuple(a + b for a, b in zip(self.c, o)))

    __radd__ = __add__

    def __neg__(self):
        return Qbeta(tuple(-a for a in self.c))

    def __sub__(self, other):
        o = _coerce4(other)
        if o is None:
            return NotImplemented
        return Qbeta(tuple(a - b for a, b in zip(self.c, o)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _coerce4(other)
        if o is None:
            return NotImplemented
        out = [Fraction(0)] * 4
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(o):
                if not b:
                    continue
                k = i + j
                if k < 4:
                    out[k] += a * b
                else:
                    out[k - 4] += 12 * a * b
        return Qbeta(tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Qbeta":
        # sigma (beta -> -beta) gives x sigma(x) = a + b beta^2 in Q(beta^2);
        # tau (beta^2 -> -beta^2) then gives the rational norm
        # N = (a + b beta^2)(a - b beta^2) = a^2 - 12 b^2, and
        # 1/x = sigma(x) (a - b beta^2) / N
        c0, c1, c2, c3 = self.c
        a = c0 * c0 + 12 * c2 * c2 - 24 * c1 * c3
        b = 2 * c0 * c2 - c1 * c1 - 12 * c3 * c3
        norm = a * a - 12 * b * b
        if not norm:
            raise ZeroDivisionError("Qbeta element is zero")
        return Qbeta(
            (
                (c0 * a - 12 * c2 * b) / norm,
                (12 * c3 * b - c1 * a) / norm,
                (c2 * a - c0 * b) / norm,
                (c1 * b - c3 * a) / norm,
            )
        )

    def __truediv__(self, other):
        o = _coerce4(other)
        if o is None:
            return NotImplemented
        return self * Qbeta(o).inverse()

    def __rtruediv__(self, other):
        o = _coerce4(other)
        if o is None:
            return NotImplemented
        return Qbeta(o) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        acc = Qbeta((1, 0, 0, 0))
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other) -> bool:
        o = _coerce4(other)
        return NotImplemented if o is None else self.c == o

    def __hash__(self) -> int:
        return hash(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} has irrational components")
        return self.c[0]

    def grades(self) -> set[int]:
        """beta-exponents with nonzero component (the Z/4 grading of the field)."""
        return {i for i, x in enumerate(self.c) if x}

    def evaluate(self, like):
        """Numeric value using the arithmetic of ``like`` (an mpf/mpc sample)."""
        beta = _beta_like(like)
        acc = beta * 0
        for a in reversed(self.c):
            acc = acc * beta + type(beta)(a.numerator) / a.denominator
        return acc

    def __repr__(self) -> str:
        parts = [f"{a}*b^{i}" if i else f"{a}" for i, a in enumerate(self.c) if a]
        return "Qbeta(" + (" + ".join(parts) or "0") + ")"


def _beta_like(like):
    if isinstance(like, (int, float)):
        return 12.0 ** 0.25
    # mpmath scalar: use its context at current working precision
    from mpmath import mp

    return mp.root(12, 4)


BETA = Qbeta((0, 1, 0, 0))
SQRT3 = Qbeta((0, 0, Fraction(1, 2), 0))  # beta^2 = 2*sqrt(3)
W_CRITICAL = Qbeta((0, 0, Fraction(1, 648), 0))  # w_c = sqrt(3)/324 = beta^2/648


def double_factorial(n: int) -> int:
    """n!! for n >= -1 (with (-1)!! = 1)."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gamma_exact(x: Fraction) -> tuple[Fraction, bool]:
    """Gamma(x) for integer or half-integer x, as (r, half) meaning r * pi**(1/2 if half else 0).

    Integer x must be positive; half-integer x may be negative (reflection
    through the recurrence keeps it rational times sqrt(pi)).
    """
    x = Fraction(x)
    if x.denominator == 1:
        n = x.numerator
        if n <= 0:
            raise ValueError(f"Gamma pole at {x}")
        return Fraction(factorial(n - 1)), False
    if x.denominator != 2:
        raise ValueError(f"need integer or half-integer argument, got {x}")
    n = int(x - Fraction(1, 2))  # x = n + 1/2, n may be negative
    if n >= 0:
        return Fraction(factorial(2 * n), 4**n * factorial(n)), True
    m = -n
    return Fraction((-4) ** m * factorial(m), factorial(2 * m)), True


def gamma_ratio(a: Fraction, b: Fraction) -> Fraction:
    """Gamma(a)/Gamma(b) for a - b a (possibly negative) integer; exact, sqrt(pi)-free.

    Valid whenever no Gamma pole is crossed with integer arguments; for
    half-integer arguments every factor is finite and nonzero.
    """
    a, b = Fraction(a), Fraction(b)
    d = a - b
    if d.denominator != 1:
        raise ValueError(f"Gamma ratio needs integer offset, got {a} vs {b}")
    steps = int(d)
    # product of the factors low + i, i < |steps|, over their common denominator
    low = b if steps >= 0 else a
    num, den = low.numerator, low.denominator
    out = 1
    for i in range(abs(steps)):
        f = num + i * den
        if f == 0:
            raise ZeroDivisionError("Gamma pole crossed at 0")
        out *= f
    ratio = Fraction(out, den ** abs(steps))
    return ratio if steps >= 0 else 1 / ratio


def binomial(a, k: int) -> Fraction:
    """Generalized binomial C(a, k) = a(a-1)...(a-k+1)/k! for rational a."""
    if k < 0:
        return Fraction(0)
    a = Fraction(a)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


def pochhammer(a, m: int) -> Fraction:
    """Rising factorial (a)_m."""
    a = Fraction(a)
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out
