"""Exact scalar arithmetic beyond the rationals.

Two ingredients the expansion work needs constantly:

* ``Qbeta`` -- the number field Q[beta] with beta^4 = 12
  (beta = 2^(1/2) * 3^(1/4)), where every critical-region constant lives,
  held as integer numerators over one denominator and nothing else.
* exact Gamma-function reductions at integer and half-integer arguments,
  so coefficient formulas never touch floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm


def _qbeta(n0: int, n1: int, n2: int, n3: int, den: int) -> "Qbeta":
    """(n0 + n1 beta + n2 beta^2 + n3 beta^3) / den in canonical form (den != 0)."""
    g = gcd(den, n0, n1, n2, n3)
    if den < 0:
        g = -g
    out = object.__new__(Qbeta)
    if g != 1:
        n0, n1, n2, n3, den = n0 // g, n1 // g, n2 // g, n3 // g, den // g
    object.__setattr__(out, "_n", (n0, n1, n2, n3))
    object.__setattr__(out, "_den", den)
    return out


def _ratio(x) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or Fraction operand, else None."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


class Qbeta:
    """c[0] + c[1]*beta + c[2]*beta^2 + c[3]*beta^3 with beta^4 = 12.

    Stored as four Python-int numerators over one positive common
    denominator, coprime to them, so equal values have equal representations
    and every operation is integer arithmetic with one gcd per result.
    ``c`` builds the components as Fractions when asked.  Immutable.
    """

    __slots__ = ("_n", "_den")

    def __init__(self, c) -> None:
        c = tuple(Fraction(x) for x in c)
        if len(c) != 4:
            raise ValueError("Qbeta needs exactly 4 rational components")
        den = lcm(*(x.denominator for x in c))
        # reduced fractions over the lcm of their denominators are already coprime to it
        nums = tuple(x.numerator * (den // x.denominator) for x in c)
        object.__setattr__(self, "_n", nums)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Qbeta is immutable")

    def __delattr__(self, name):
        raise AttributeError("Qbeta is immutable")

    def __reduce__(self):
        return _qbeta, (*self._n, self._den)

    @property
    def c(self) -> tuple:
        """The four components on 1, beta, beta^2, beta^3, as Fractions."""
        return tuple(Fraction(x, self._den) for x in self._n)

    @property
    def numerators(self) -> tuple:
        """The four components as Python-int numerators over ``denominator``."""
        return self._n

    @property
    def denominator(self) -> int:
        """The positive common denominator, coprime to the numerators jointly."""
        return self._den

    @staticmethod
    def rational(x) -> "Qbeta":
        return Qbeta((Fraction(x), 0, 0, 0))

    def __bool__(self) -> bool:
        return any(self._n)

    def __add__(self, other):
        if isinstance(other, Qbeta):
            bn, db = other._n, other._den
        else:
            r = _ratio(other)
            if r is None:
                return NotImplemented
            bn, db = (r[0], 0, 0, 0), r[1]
        an, da = self._n, self._den
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _qbeta(*(x * sa + y * sb for x, y in zip(an, bn)), sa * da)

    __radd__ = __add__

    def __neg__(self):
        n0, n1, n2, n3 = self._n
        return _qbeta(-n0, -n1, -n2, -n3, self._den)

    def __sub__(self, other):
        if not isinstance(other, (Qbeta, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a0, a1, a2, a3 = self._n
        if isinstance(other, Qbeta):
            b0, b1, b2, b3 = other._n
            return _qbeta(
                a0 * b0 + 12 * (a1 * b3 + a2 * b2 + a3 * b1),
                a0 * b1 + a1 * b0 + 12 * (a2 * b3 + a3 * b2),
                a0 * b2 + a1 * b1 + a2 * b0 + 12 * a3 * b3,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                self._den * other._den,
            )
        r = _ratio(other)
        if r is None:
            return NotImplemented
        p, q = r
        return _qbeta(a0 * p, a1 * p, a2 * p, a3 * p, self._den * q)

    __rmul__ = __mul__

    def inverse(self) -> "Qbeta":
        # sigma (beta -> -beta) gives x sigma(x) = a + b beta^2 in Q(beta^2);
        # tau (beta^2 -> -beta^2) then gives the rational norm
        # N = (a + b beta^2)(a - b beta^2) = a^2 - 12 b^2, and
        # 1/x = sigma(x) (a - b beta^2) / N; on numerators over d the
        # norm picks up d^4, so 1/x = d sigma(n) (a - b beta^2) / N(n)
        c0, c1, c2, c3 = self._n
        a = c0 * c0 + 12 * c2 * c2 - 24 * c1 * c3
        b = 2 * c0 * c2 - c1 * c1 - 12 * c3 * c3
        norm = a * a - 12 * b * b
        if not norm:
            raise ZeroDivisionError("Qbeta element is zero")
        d = self._den
        return _qbeta(
            (c0 * a - 12 * c2 * b) * d,
            (12 * c3 * b - c1 * a) * d,
            (c2 * a - c0 * b) * d,
            (c1 * b - c3 * a) * d,
            norm,
        )

    def __truediv__(self, other):
        if isinstance(other, Qbeta):
            return self * other.inverse()
        r = _ratio(other)
        if r is None:
            return NotImplemented
        p, q = r
        if not p:
            raise ZeroDivisionError("Qbeta division by zero")
        a0, a1, a2, a3 = self._n
        return _qbeta(a0 * q, a1 * q, a2 * q, a3 * q, self._den * p)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        acc = _qbeta(1, 0, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Qbeta):
            return self._den == other._den and self._n == other._n
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return self._n == (r[0], 0, 0, 0) and self._den == r[1]

    def __hash__(self) -> int:
        # a rational element hashes as the Fraction (or int) it equals
        if self.is_rational():
            return hash(Fraction(self._n[0], self._den))
        return hash((self._n, self._den))

    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} has irrational components")
        return Fraction(self._n[0], self._den)

    def __repr__(self) -> str:
        parts = [f"{a}*b^{i}" if i else f"{a}" for i, a in enumerate(self.c) if a]
        return "Qbeta(" + (" + ".join(parts) or "0") + ")"


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
