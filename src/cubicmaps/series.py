"""Truncated formal power series with explicit known-coefficient windows.

A series carries a variable tag, an integer ``offset`` (lowest tracked
exponent, may be negative), and a run of tracked coefficients.  Exponents
below the offset are exactly zero; exponents above ``known_max`` are unknown,
not zero.  Every operation propagates the window by the min-horizon rule, so
a coefficient can be read back only if it is fully determined by the inputs.

Coefficients are rational.  A series is stored as a tuple of Python-int
numerators over one positive common denominator, reduced by a single gcd per
result; every operation is integer arithmetic (products are schoolbook
convolutions, quotients a fraction-free triangular solve), and every result
is built from its numerators by ``from_numerators``.  ``coeffs`` and
``coefficient`` build ``fractions.Fraction`` values when asked.  Any other
coefficient or scalar (a float, an mpf, an element of an extension
field) raises ``TypeError``.  Nothing here rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from itertools import accumulate, repeat
from operator import add, mul

VAR_U2 = "u2"  # exponent counts powers of u^2 (even series in the coupling)
VAR_W = "w"  # w = s*u^2
VAR_V = "v"  # v = 18 w, the string hierarchy's own variable

_VARS = (VAR_U2, VAR_W, VAR_V)


class BeyondHorizonError(IndexError):
    """Requested coefficient lies above the series' known window."""


class TruncatedSeries:
    """Immutable; equal when variable, offset and coefficients agree (not hashable or picklable)."""

    __slots__ = ("var", "offset", "_num", "_den")

    def __init__(self, var: str, offset: int, coeffs) -> None:
        den = lcm(*(_require_rational(c).denominator for c in coeffs))
        self._set(var, offset, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def _set(self, var: str, offset: int, nums, den) -> None:
        if var not in _VARS:
            raise ValueError(f"unknown series variable {var!r}")
        if not nums:
            raise ValueError("series needs at least one tracked coefficient")
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
        for name, value in (("var", var), ("offset", offset + lead), ("_num", nums), ("_den", den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """Tracked coefficients, zeros included, as Fractions."""
        return tuple(Fraction(x, self._den) for x in self._num)

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
        return Fraction(self._num[exponent - self.offset], self._den)

    def _check_var(self, other: "TruncatedSeries") -> None:
        if self.var != other.var:
            raise ValueError(f"mixed series variables {self.var!r} and {other.var!r}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._add_scalar(other)
        self._check_var(other)
        # the min-horizon window, each operand's numerators over the common denominator
        lo = min(self.offset, other.offset)
        acc = [0] * (min(self.known_max, other.known_max) - lo + 1)
        den = lcm(self._den, other._den)
        for s in (self, other):
            o, c = s.offset - lo, den // s._den
            x = s._num[: max(len(acc) - o, 0)]
            acc[o : o + len(x)] = map(add, acc[o : o + len(x)], map(mul, x, repeat(c)) if c != 1 else x)
        return from_numerators(self.var, lo, acc, den)

    __radd__ = __add__

    def _add_scalar(self, c):
        if self.known_max < 0:
            raise BeyondHorizonError("window ends below exponent 0")
        q, lo = _require_rational(c).denominator, min(self.offset, 0)
        g = gcd(self._den, q)  # the constant joins the exponent-0 numerator
        nums = [0] * (self.offset - lo) + [x * (q // g) for x in self._num]
        nums[-lo] += c.numerator * (self._den // g)
        return from_numerators(self.var, lo, nums, self._den // g * q)

    def __neg__(self):
        return self._scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        p = _require_rational(c).numerator
        g = gcd(p, self._den)  # cancelled up front, so an integer c leaves no gcd to divide out
        return from_numerators(self.var, self.offset, [x * (p // g) for x in self._num], self._den // g * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scale(other)
        return product_sum(((1, self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_var(other)
        offset = self.offset - other.valuation()  # canonical: the valuation is the offset
        n = min(len(self._num), len(other._num))
        # a/b over the integers: with p the leading numerator of b, the
        # quotient's i-th coefficient is Q_i / p^(i+1), where
        # Q_i = a_i p^i - sum_j (b_j p^(j-1)) Q_(i-j) needs no division
        a, b = self._num, other._num
        p = b[0]
        powers = list(accumulate(repeat(p, n), mul, initial=1))
        b1 = list(map(mul, b[1:n], powers))
        q: list = []
        for i in range(n):
            q.append(a[i] * powers[i] - sum(map(mul, b1, reversed(q))))
        nums = [x * powers[n - 1 - i] * other._den for i, x in enumerate(q)]
        return from_numerators(self.var, offset, nums, powers[n] * self._den)

    # -- structure ---------------------------------------------------------

    def shift(self, k: int):
        """Multiply by var**k."""
        return from_numerators(self.var, self.offset + k, self._num, self._den)

    def dilate(self, c: int, var: str):
        """Substitute self.var = c * var for an integer c >= 1: coefficient e times c^e; c = 1 renames the variable."""
        if type(c) is not int or c < 1:
            raise ValueError(f"dilation needs an integer scale c >= 1, not {c!r}")
        lo, n = self.offset, len(self._num)
        # x_e c^e = x_e c^(e-lo) * c^lo, over one denominator
        up, den = c ** max(lo, 0), self._den * c ** max(-lo, 0)
        g = gcd(up, den)
        nums = list(map(mul, self._num, accumulate(repeat(c, n - 1), mul, initial=up // g)))
        return from_numerators(var, lo, nums, den // g)

    def truncate_to(self, known_max: int):
        if known_max > self.known_max:
            raise BeyondHorizonError(
                f"cannot extend window to {known_max} (known to {self.known_max})"
            )
        n = known_max - self.offset + 1
        if n < 1:
            return zero_series(self.var, known_max)
        return from_numerators(self.var, self.offset, self._num[:n], self._den)

    def __repr__(self) -> str:
        shown = []
        for e, c in ((self.offset + i, c) for i, c in enumerate(self.coeffs) if c):
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


def zero_series(var: str, known_max: int) -> TruncatedSeries:
    return TruncatedSeries(var, known_max, (0,))


def from_numerators(var: str, offset: int, nums, den: int) -> TruncatedSeries:
    """Series with coefficient nums[i] / den at exponent offset + i (ints, den nonzero)."""
    out = object.__new__(TruncatedSeries)
    out._set(var, offset, nums, den)
    return out


def product_sum(terms) -> TruncatedSeries:
    """Sum of c*a*b over (c, a, b) terms with int weights c, in one pass over one denominator.

    The window is the min-horizon rule over the products, then their sum;
    only coefficients inside it are computed, into one integer accumulator
    reduced by one gcd.  A square (a is b) sums each symmetric pair once.
    """
    terms = list(terms)
    lo = min(a.offset + b.offset for _, a, b in terms)
    acc = [0] * (min(a.offset + b.offset + min(len(a._num), len(b._num)) for _, a, b in terms) - lo)
    den = lcm(*(a._den * b._den for _, a, b in terms))
    for c, a, b in terms:
        terms[0][1]._check_var(a)
        a._check_var(b)
        o = a.offset + b.offset - lo
        n = len(acc) - o
        c *= den // (a._den * b._den)
        x = a._num
        if a is b:
            for k in range(n):
                s = 2 * sum(map(mul, x[: (k + 1) // 2], x[k : k // 2 : -1]))
                acc[o + k] += c * (s if k % 2 else s + x[k // 2] ** 2)
        elif n > 0:
            x = [v * c for v in x[:n]] if c != 1 else x
            ry = b._num[n - 1 :: -1]
            for k in range(n):
                acc[o + k] += sum(map(mul, x, ry[n - 1 - k :]))
    return from_numerators(terms[0][1].var, lo, acc, den)


def even_taylor_sum(terms) -> TruncatedSeries:
    """Sum of 81^j s^(2j) / (2j)! over (s, j) terms, in one binomial pass over one denominator.

    81^j/(2j)! = 9^(2j)/(2j)!: a shift by 9 in v = 18 w (1/2 in w).  In one
    term var^e gets the integer weight 81^j binom(e + 2j, 2j) times s_(e+2j):
    its window slides down 2j exponents and keeps its length, as 2j derivatives
    would leave it.  For e + 2j < 0 binom(-n, 2j) = binom(n + 2j - 1, 2j)
    applies (2j is even).  The window is the min-horizon rule over the terms.
    A j = 0 term has weight 1 everywhere, but a plain sum is ``+``.
    """
    terms = [(s, 2 * j) for s, j in terms]
    lo = min(s.offset - k for s, k in terms)
    acc = [0] * (min(s.known_max - k for s, k in terms) - lo + 1)
    den = lcm(*(s._den for s, _ in terms))
    for s, k in terms:
        terms[0][0]._check_var(s)
        o = s.offset - k - lo
        n = max(len(acc) - o, 0)
        scale = den // s._den * 9**k
        weights = (scale * comb(e, k) if e >= 0 else scale * comb(k - e - 1, k) for e in range(s.offset, s.offset + n))
        acc[o : o + n] = map(add, acc[o : o + n], map(mul, s._num, weights))
    return from_numerators(terms[0][0].var, lo, acc, den)
