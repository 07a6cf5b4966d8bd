"""Output checks that share no code and no route with the program under test.

Counts come from the Goulden-Jackson triangulation recurrence (Goulden and
Jackson, "The KP hierarchy, branched covers, and triangulations", Adv. Math.
219, 2008), which does not use the string equations or the Toda flow, so a
faster pipeline cannot make these checks trivially true.  Critical amplitudes
come from the published count constants K_0, K_2, K_4; finite-N and
equilibrium outputs are held to stated floors and to identities re-derived
here from the potential V(M) = M^2/2 - u M^3.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf, workdps

# K_2g = q * (6 pi)^(e/2) for g = 0, 1, 2 (Bender-Gao-Richmond constants for cubic maps)
_K_CLOSED = {0: (Fraction(1), -1), 1: (Fraction(1, 48), 0), 2: (Fraction(7, 1440), -1)}


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gamma_half_integer(x: Fraction) -> tuple[Fraction, int]:
    """Gamma(x) for integer or half-integer x as (q, e): q * pi^(e/2)."""
    if x.denominator == 1:
        return Fraction(factorial(x.numerator - 1)), 0
    n = int(x - Fraction(1, 2))
    if n >= 0:
        return Fraction(factorial(2 * n), 4**n * factorial(n)), 1
    return Fraction((-4) ** -n * factorial(-n), factorial(-2 * n)), 1


def critical_amplitude(g: int) -> tuple[Fraction, ...]:
    """C_2g on the basis 1, beta, beta^2, beta^3 (beta^4 = 12), from the closed form of K_2g.

    C_2g = K_2g Gamma((5g-1)/2) u_c^g / (6 3^(1/4)) with u_c = 3^(1/4)/18.  Every
    factor is q * 2^(a/2) * 3^(b/4) * pi^(c/2); the pi powers cancel and
    2^(a/2) 3^(b/4) = beta^m times a rational for m = b mod 4.
    """
    q, e_k = _K_CLOSED[g]
    gq, e_g = _gamma_half_integer(Fraction(5 * g - 1, 2))
    q = q * gq / (Fraction(18) ** g * 6)
    a = e_k  # (6 pi)^(e/2) contributes 2^(e/2) 3^(e/2) pi^(e/2)
    b = 2 * e_k + g - 1
    if e_k + e_g:
        raise ArithmeticError("pi powers do not cancel")
    m = b % 4
    if (a - m) % 2:
        raise ArithmeticError("amplitude is not a rational multiple of a beta power")
    q *= Fraction(2) ** ((a - m) // 2) * Fraction(3) ** ((b - m) // 4)
    return tuple(q if i == m else Fraction(0) for i in range(4))


def k_closed_form(g: int):
    q, e = _K_CLOSED[g]
    return mpf(q.numerator) / q.denominator * (6 * mp.pi) ** (mpf(e) / 2)


class Triangulations:
    """T(n, g): rooted genus-g triangulations with 2n faces, i.e. cubic maps with 2n vertices.

        (n+1) T(n,g) = 4n(3n-2)(3n-4) T(n-2,g-1) + 4(3n-1) T(n-1,g)
                       + 4 sum_{i+j=n-2} sum_{h+k=g} (3i+2)(3j+2) T(i,h) T(j,k)

    with T(0,0) = 1, T(0,g>0) = 0, and the boundary value T(-1,0) = -1/2,
    which enters only at (n,g) = (1,1).  Entries are filled on demand and kept.
    """

    def __init__(self) -> None:
        self._t: dict[tuple[int, int], int] = {(0, 0): 1}
        self._n_max = 0
        self._g_max = 0

    def _fill(self, n_max: int, g_max: int) -> None:
        if n_max <= self._n_max and g_max <= self._g_max:
            return
        n_max, g_max = max(n_max, self._n_max), max(g_max, self._g_max)
        t = self._t
        for g in range(1, g_max + 1):
            t[(0, g)] = 0
        for n in range(1, n_max + 1):
            for g in range(g_max + 1):
                if (n, g) in t:
                    continue
                acc = 4 * (3 * n - 1) * t[(n - 1, g)]
                if g >= 1:
                    if n >= 2:
                        acc += 4 * n * (3 * n - 2) * (3 * n - 4) * t[(n - 2, g - 1)]
                    elif g == 1:  # n = 1: 4 * 1 * 1 * (-1) * T(-1, 0)
                        acc += 2
                conv = 0
                for i in range(n - 1):
                    j = n - 2 - i
                    inner = sum(t[(i, h)] * t[(j, g - h)] for h in range(g + 1))
                    conv += (3 * i + 2) * (3 * j + 2) * inner
                acc += 4 * conv
                if acc % (n + 1):
                    raise ArithmeticError(f"T({n},{g}) is not an integer")
                t[(n, g)] = acc // (n + 1)
        self._n_max, self._g_max = n_max, g_max

    def T(self, n: int, g: int) -> int:
        self._fill(n, g)
        return self._t[(n, g)]

    def count(self, g: int, j: int) -> int:
        """f^(2g)_(2j) = T(j, g) (2j)! 9^j / (6j): connected cubic graphs, labeled half-edges."""
        f = Fraction(self.T(j, g) * factorial(2 * j) * 9**j, 6 * j)
        if f.denominator != 1:
            raise ArithmeticError(f"f({g},{j}) is not an integer")
        return int(f)


def _exact(enc) -> Fraction:
    if enc.get("kind") != "exact":
        raise ValueError(f"expected an exact rational, got {enc!r}")
    return Fraction(int(enc["num"]), int(enc["den"]))


def _approx(enc):
    if enc.get("kind") != "approx":
        raise ValueError(f"expected an approx value, got {enc!r}")
    if "value" in enc:
        return mpf(enc["value"])
    return mp.mpc(enc["re"], enc["im"])


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


class Checker:
    """check(argv, stdout) returns a list of problems; empty means the output is right."""

    def __init__(self) -> None:
        self.gj = Triangulations()

    def check(self, argv: list[str], stdout: str) -> list[str]:
        handler = getattr(self, "_" + argv[0], None)
        if handler is None:
            return [f"no output check for {argv[0]!r}"]
        try:
            return handler(argv, stdout)
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    # -- exact outputs ------------------------------------------------------

    def _expand(self, argv, text):
        g, max_j = int(_flag(argv, "--genus")), int(_flag(argv, "--max-j"))
        if _flag(argv, "--format", "json") == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["g", "j", "f_num", "f_den", "F_coeff_num", "F_coeff_den"]:
                return [f"bad CSV header {rows[0]}"]
            got = [(int(r[0]), int(r[1]), Fraction(int(r[2]), int(r[3])), Fraction(int(r[4]), int(r[5])))
                   for r in rows[1:]]
        else:
            data = json.loads(text)
            if (data["genus"], data["max_j"]) != (g, max_j):
                return ["genus/max_j echo mismatch"]
            got = [(r["g"], r["j"], _exact(r["f"]), _exact(r["F_coeff"])) for r in data["rows"]]
        if [(r[0], r[1]) for r in got] != [(g, j) for j in range(1, max_j + 1)]:
            return ["rows do not run over j = 1..max_j at the requested genus"]
        problems = []
        for _, j, f, coeff in got:
            want = self.gj.count(g, j)
            if f != want:
                problems.append(f"f({g},{j}) = {f}, Goulden-Jackson gives {want}")
            if coeff * factorial(2 * j) != f:
                problems.append(f"F_coeff(2j)! != f at j={j}")
        return problems[:5]

    def _hierarchy(self, argv, text):
        max_k, horizon = int(_flag(argv, "--max-k")), int(_flag(argv, "--horizon"))
        data = json.loads(text)
        if (data["max_k"], data["horizon"], len(data["g_hat"])) != (max_k, horizon, max_k + 1):
            return ["max_k/horizon echo mismatch"]
        problems = []
        g0 = {}
        for k, series in enumerate(data["g_hat"]):
            if series["variable"] != "w" or series["known_max"] != horizon:
                problems.append(f"g_hat[{k}] window is not w^..w^{horizon}")
                continue
            coeffs = {series["offset"] + i: _exact(c) for i, c in enumerate(series["coefficients"])}
            for j in range(min(1, min(coeffs)), horizon + 1):
                got = coeffs.get(j, Fraction(0))
                if k == 0:
                    g0[j] = got
                want = self._ghat_coefficient(k, j)
                if got != want:
                    problems.append(f"g_hat[{k}] w^{j} = {got}, Goulden-Jackson gives {want}")
        det = data["det"]
        det_coeffs = {det["offset"] + i: _exact(c) for i, c in enumerate(det["coefficients"])}
        for j in range(0, horizon + 1):
            want = 1 - 108 * g0.get(j, Fraction(0)) if j == 0 else -108 * g0.get(j, Fraction(0))
            if det_coeffs.get(j, Fraction(0)) != want:
                problems.append(f"det w^{j} is not the w^{j} term of 1 - 108 g_hat[0]")
        return problems[:5]

    def _ghat_coefficient(self, k: int, j: int) -> Fraction:
        """w^j coefficient of g_hat[k] from the count f^(2k)_(2J), J = j + 2k - 2.

        Inverts the double integration F-term = 2 c_j / (72 d1 d2); at k = 0 the
        w and w^2 terms are the subtracted pieces 1 and 36.
        """
        if k == 0 and j in (1, 2):
            return Fraction((1, 36)[j - 1])
        big_j = j + 2 * k - 2
        if j < 1 or big_j < 1:
            return Fraction(0)
        d1, d2 = 3 * j + 6 * k - 4, 3 * j + 6 * k - 6
        return Fraction(36 * d1 * d2 * self.gj.count(k, big_j), factorial(2 * big_j))

    def _critical(self, argv, text):
        big_g = int(_flag(argv, "--max-genus"))
        data = json.loads(text)
        amps = data["amplitudes"]
        if data["max_genus"] != big_g or [a["g"] for a in amps] != list(range(big_g + 1)):
            return ["max_genus echo mismatch"]
        problems = []
        if [_exact(c) for c in data["w_c"]["components"]] != [0, 0, Fraction(1, 648), 0]:
            problems.append("w_c is not sqrt(3)/324")
        if _exact(data["g0_at_wc"]) != Fraction(1, 108):
            problems.append("g_hat0(w_c) is not 1/108")
        for g in range(min(big_g, 2) + 1):
            got = tuple(_exact(c) for c in amps[g]["C"]["components"])
            if got != critical_amplitude(g):
                problems.append(f"C_{2 * g} = {got}, expected {critical_amplitude(g)}")
            with workdps(60):
                k_got, k_want = _approx(amps[g]["K"]), k_closed_form(g)
                if abs(k_got - k_want) > mpf(10) ** -39 * abs(k_want):
                    problems.append(f"K_{2 * g} disagrees with its closed form beyond 40 digits")
        return problems

    def _oracle(self, argv, text):
        p = int(_flag(argv, "--vertices"))
        data = json.loads(text)
        problems = []
        if data["p"] != p or data["workers"] != int(_flag(argv, "--workers", "1")):
            problems.append("p/workers echo mismatch")
        if data["total"] != double_factorial(3 * p - 1):
            problems.append(f"total {data['total']} != (3p-1)!!")
        j = p // 2
        for g_key, n in data["connected"].items():
            if n != self.gj.count(int(g_key), j):
                problems.append(f"connected genus {g_key}: {n} != {self.gj.count(int(g_key), j)}")
        every_genus = sum(self.gj.count(g, j) for g in range(j + 1))
        if data["disconnected"] != data["total"] - every_genus:
            problems.append("disconnected count disagrees with the connected counts of every genus")
        if not isinstance(data["elapsed_ms"], int) or data["elapsed_ms"] < 0:
            problems.append("elapsed_ms is not a nonnegative integer")
        return problems

    # -- floating outputs, held to floors ------------------------------------

    def _equilibrium(self, argv, text):
        u = Fraction(_flag(argv, "--u"))
        dps = int(_flag(argv, "--precision", "40"))
        data = json.loads(text)
        problems = []
        if _exact(data["u"]) != u or data["critical_flag"]:
            problems.append("u echo mismatch or unexpected critical flag")
        with workdps(dps + 20):
            x, y, a, b, z0 = (_approx(data[k]) for k in ("x", "y", "a", "b", "z0"))
            um = mpf(u.numerator) / u.denominator
            tol = mpf(10) ** (5 - dps)
            # one-cut conditions: arcsine averages of V'(s) and (s - x) V'(s) over [a, b] are 0 and 2
            identities = {
                "a = x - y": a - (x - y),
                "b = x + y": b - (x + y),
                "<V'> = 0": x - 3 * um * (x * x + y * y / 2),
                "<(s-x) V'> = 2": y * y * (1 - 6 * um * x) / 2 - 2,
                "z0 = 1/(3u) - x": z0 - (1 / (3 * um) - x),
            }
            for name, residual in identities.items():
                if abs(residual) > tol * max(1, abs(x), abs(y), abs(z0)):
                    problems.append(f"endpoint identity {name} fails: {mp.nstr(residual, 5)}")
            phi = data["phi_report"]
            if not phi["all_positive"] or phi["violations"]:
                problems.append("Re phi is not positive along the contour tails")
            for key in ("min_left", "min_gap", "min_ray"):
                if _approx(phi[key]["re_phi"]) <= 0:
                    problems.append(f"{key} Re phi is not positive")
        return problems

    def _validate(self, argv, text):
        big_n = int(_flag(argv, "--N"))
        u = Fraction(_flag(argv, "--u"))
        precision = int(_flag(argv, "--precision", "120"))
        data = json.loads(text)
        n_max = 3 * big_n // 2 + 1
        if (data["N"], data["precision"], data["n_max"]) != (big_n, precision, n_max):
            return ["N/precision/n_max echo mismatch"]
        if len(data["moments"]) != 2 * n_max + 2 or len(data["gamma2"]) != n_max + 1:
            return ["moment or recurrence table has the wrong length"]
        problems = []
        with workdps(precision + 20):
            # floors: residuals at least `precision` digits down, cross-check as good
            if _approx(data["max_string_residual"]) > mpf(10) ** -precision:
                problems.append("max string residual above 10^-precision")
            if float(data["cross_check_digits"]["value"]) < precision:
                problems.append(f"cross-check agreement {data['cross_check_digits']['value']} digits < {precision}")
            # both string identities, recomputed here from the printed recurrence data
            um = mpf(u.numerator) / u.denominator
            g2 = [_approx(v) for v in data["gamma2"]]
            beta = [_approx(v) for v in data["beta"]]
            tol = mpf(10) ** (5 - precision)
            for n in range(n_max):
                r1 = 3 * um * (g2[n + 1] + beta[n] ** 2 + g2[n]) - beta[n]
                if abs(r1) > tol * max(1, abs(g2[n + 1]), abs(beta[n]) ** 2):
                    problems.append(f"first string identity fails at n={n}")
            for n in range(1, n_max + 1):
                r2 = g2[n] * (1 - 3 * um * (beta[n] + beta[n - 1])) - mpf(n) / big_n
                if abs(r2) > tol * max(1, abs(g2[n]) * abs(beta[n])):
                    problems.append(f"second string identity fails at n={n}")
            if "--toda" in argv:
                if data["toda"] is None or _approx(data["toda"]) > mpf("1e-4"):
                    problems.append("Toda second difference missing or above 1e-4")
        return problems[:5]
