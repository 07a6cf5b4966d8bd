"""Truncated formal power series with explicit known-coefficient windows.

A series carries a variable tag, an integer ``offset`` (lowest tracked
exponent, may be negative), and a run of tracked coefficients.  Exponents
below the offset are exactly zero; exponents above ``known_max`` are unknown,
not zero.  Every operation propagates the window by the min-horizon rule, so
a coefficient can be read back only if it is fully determined by the inputs.

Coefficients are rational.  A series is stored as a tuple of Python-int
numerators over one positive common denominator, reduced by a single gcd per
result; every operation is integer arithmetic (products are schoolbook
convolutions, quotients a fraction-free triangular solve), and ``coeffs``
exposes the same values as a cached tuple of ``fractions.Fraction``.  Any
other coefficient or scalar (a float, an mpf, an element of an extension
field) raises ``TypeError``.  Nothing here rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul
from typing import Any

VAR_U2 = "u2"  # exponent counts powers of u^2 (even series in the coupling)
VAR_W = "w"  # w = s*u^2

_VARS = (VAR_U2, VAR_W)


class BeyondHorizonError(IndexError):
    """Requested coefficient lies above the series' known window."""


def _place(values, lo: int, n: int) -> list:
    """n slots holding values from slot lo on, zero elsewhere (values cut at n)."""
    lo = min(lo, n)
    body = list(values[: n - lo])
    return [0] * lo + body + [0] * (n - lo - len(body))


def _convolve(a, b, n: int) -> list:
    """First n coefficients of the product of two coefficient runs of length >= n."""
    rb = b[n - 1 :: -1]
    return [sum(map(mul, a, rb[n - 1 - k :])) for k in range(n)]


class TruncatedSeries:
    """Immutable; equal (and equally hashed) when variable, offset and coefficients agree."""

    __slots__ = ("var", "offset", "_num", "_den", "_coeffs")

    def __init__(self, var: str, offset: int, coeffs) -> None:
        if var not in _VARS:
            raise ValueError(f"unknown series variable {var!r}")
        if not coeffs:
            raise ValueError("series needs at least one tracked coefficient")
        den = lcm(*(_require_rational(c).denominator for c in coeffs))
        self._set(var, offset, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def _set(self, var: str, offset: int, nums, den) -> None:
        # canonical form: leading coefficient nonzero, or a single zero pinned
        # at known_max (the window below it is zero either way); numerators
        # coprime to a positive denominator
        lead, last = 0, len(nums) - 1
        while lead < last and not nums[lead]:
            lead += 1
        nums = tuple(nums[lead:])
        if not nums[0]:
            nums, den = (0,), 1
        else:
            g = gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = tuple(x // g for x in nums)
                den //= g
        for name, value in (("var", var), ("offset", offset + lead), ("_num", nums), ("_den", den), ("_coeffs", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries, (self.var, self.offset, self.coeffs)

    def _rational(self, offset: int, nums, den: int) -> "TruncatedSeries":
        out = object.__new__(TruncatedSeries)
        out._set(self.var, offset, nums, den)
        return out

    def _with_window(self, var: str, offset: int) -> "TruncatedSeries":
        out = object.__new__(TruncatedSeries)
        for name in self.__slots__:
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "var", var)
        object.__setattr__(out, "offset", offset)
        return out

    @property
    def coeffs(self) -> tuple:
        """Tracked coefficients, zeros included, as Fractions."""
        if self._coeffs is None:
            den = self._den
            object.__setattr__(self, "_coeffs", tuple(Fraction(x, den) for x in self._num))
        return self._coeffs

    @property
    def numerators(self) -> tuple:
        """Tracked coefficients as Python-int numerators over ``denominator``."""
        return self._num

    @property
    def denominator(self) -> int:
        """The positive common denominator, coprime to the numerators."""
        return self._den

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.var == other.var and self.offset == other.offset
                and self._den == other._den and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.var, self.offset, self._num, self._den))

    @property
    def known_max(self) -> int:
        return self.offset + len(self._num) - 1

    def is_zero(self) -> bool:
        return not any(self._num)

    def valuation(self) -> int:
        """Exponent of the lowest nonzero tracked coefficient."""
        for i, c in enumerate(self._num):
            if c:
                return self.offset + i
        raise ValueError("series is zero through its horizon")

    def coefficient(self, exponent: int):
        if exponent > self.known_max:
            raise BeyondHorizonError(
                f"exponent {exponent} beyond known window (max {self.known_max})"
            )
        if exponent < self.offset:
            return Fraction(0)
        return self.coeffs[exponent - self.offset]

    def coefficients(self) -> dict[int, Any]:
        """Nonzero tracked coefficients keyed by exponent."""
        return {self.offset + i: c for i, c in enumerate(self.coeffs) if c}

    def _check_var(self, other: "TruncatedSeries") -> None:
        if self.var != other.var:
            raise ValueError(f"mixed series variables {self.var!r} and {other.var!r}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._add_scalar(other)
        self._check_var(other)
        offset = min(self.offset, other.offset)
        n = min(self.known_max, other.known_max) - offset + 1
        da, db = self._den, other._den
        g = gcd(da, db)
        a = _place(self._num, self.offset - offset, n)
        b = _place(other._num, other.offset - offset, n)
        if db != g:
            a = [x * (db // g) for x in a]
        if da != g:
            b = [x * (da // g) for x in b]
        return self._rational(offset, list(map(add, a, b)), da // g * db)

    __radd__ = __add__

    def _add_scalar(self, c):
        if self.known_max < 0:
            raise BeyondHorizonError("window ends below exponent 0")
        return self + monomial(self.var, c, 0, self.known_max)

    def __neg__(self):
        return self._scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        p = _require_rational(c).numerator
        return self._rational(self.offset, [x * p for x in self._num], self._den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scale(other)
        self._check_var(other)
        n = min(len(self._num), len(other._num))
        offset = self.offset + other.offset
        return self._rational(offset, _convolve(self._num, other._num, n), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scale(Fraction(1) / _require_rational(other))
        self._check_var(other)
        offset = self.offset - other.valuation()  # canonical: the valuation is the offset
        n = min(len(self._num), len(other._num))
        # a/b over the integers: with p the leading numerator of b, the
        # quotient's i-th coefficient is Q_i / p^(i+1), where
        # Q_i = a_i p^i - sum_j (b_j p^(j-1)) Q_(i-j) needs no division
        a, b = self._num, other._num
        p = b[0]
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * p)
        b1 = list(map(mul, b[1:n], powers))
        q: list = []
        for i in range(n):
            q.append(a[i] * powers[i] - sum(map(mul, b1, reversed(q))))
        nums = [x * powers[n - 1 - i] * other._den for i, x in enumerate(q)]
        return self._rational(offset, nums, powers[n] * self._den)

    # -- calculus ----------------------------------------------------------

    def even_taylor_term(self, j: int):
        """s^(2j) / ((2j)! 4^j): var^e gets binom(e + 2j, 2j) s_(e+2j) / 4^j.

        The window slides down 2j exponents and keeps its length, as 2j
        derivatives would leave it.  For e + 2j < 0 the generalized binomial
        binom(-n, 2j) = binom(n + 2j - 1, 2j) applies (2j is even).
        """
        k, e0 = 2 * j, self.offset
        out = [x * (comb(e, k) if e >= 0 else comb(k - e - 1, k)) for e, x in enumerate(self._num, e0)]
        return self._rational(e0 - k, out, self._den << k)

    # -- structure ---------------------------------------------------------

    def shift(self, k: int):
        """Multiply by var**k."""
        return self._with_window(self.var, self.offset + k)

    def retag(self, var: str):
        """Reinterpret exponents under a new variable tag (w = u^2 style substitutions)."""
        if var not in _VARS:
            raise ValueError(f"unknown series variable {var!r}")
        return self._with_window(var, self.offset)

    def truncate_to(self, known_max: int):
        if known_max > self.known_max:
            raise BeyondHorizonError(
                f"cannot extend window to {known_max} (known to {self.known_max})"
            )
        n = known_max - self.offset + 1
        if n < 1:
            return zero_series(self.var, known_max)
        return self._rational(self.offset, self._num[:n], self._den)

    def sqrt_unit(self):
        """Square root of a series whose lowest tracked term is a rational square at even exponent."""
        v = self.valuation()
        if v % 2:
            raise ValueError("odd valuation has no series square root")
        base = self.shift(-v) if v else self
        c0 = base.coeffs[0]
        from math import isqrt

        rn, rd = isqrt(c0.numerator), isqrt(c0.denominator)
        if rn * rn != c0.numerator or rd * rd != c0.denominator:
            raise ValueError(f"leading coefficient {c0} is not a rational square")
        n = len(base.coeffs)
        t = monomial(self.var, Fraction(rn, rd), 0, base.known_max)
        steps = 0
        while (1 << steps) <= n:
            steps += 1
        for _ in range(steps + 1):
            t = (t + base / t) * Fraction(1, 2)
        if t * t != base:
            raise ArithmeticError("square-root iteration failed to verify")
        return t.shift(v // 2)

    def __repr__(self) -> str:
        shown = []
        for e, c in sorted(self.coefficients().items()):
            shown.append(f"{c}*{self.var}^{e}")
            if len(shown) == 4:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"<{body} + O({self.var}^{self.known_max + 1})>"


def _require_rational(c):
    """c itself if it is an int or a Fraction; anything else raises TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"series coefficients and scalars must be int or Fraction, not {type(c).__name__}")
    return c


def monomial(var: str, coeff, exponent: int, known_max: int) -> TruncatedSeries:
    if known_max < exponent:
        raise ValueError("known_max below the monomial exponent")
    return TruncatedSeries(var, exponent, (coeff,) + (0,) * (known_max - exponent))


def zero_series(var: str, known_max: int) -> TruncatedSeries:
    return TruncatedSeries(var, known_max, (0,))


def from_numerators(var: str, offset: int, nums, den: int) -> TruncatedSeries:
    """Series with coefficient nums[i] / den at exponent offset + i (ints, den nonzero)."""
    if var not in _VARS:
        raise ValueError(f"unknown series variable {var!r}")
    if not nums:
        raise ValueError("series needs at least one tracked coefficient")
    out = object.__new__(TruncatedSeries)
    out._set(var, offset, nums, den)
    return out
