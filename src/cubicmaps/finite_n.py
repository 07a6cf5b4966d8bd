"""Finite-N orthogonal-polynomial data on the two-ray contours.

Everything past the moments is linear algebra, so the analytic error budget
lives in the quadrature: each ray is integrated panel-wise by Gauss-Legendre
with a truncation radius taken from an explicit tail bound.  The moment sums
run in fixed-point Python integers: every node contributes a complex weight
times a real power of its radius, and the ray's phase is applied once per
order.  The weights take no exponential per node: along a ray the exponent
-N V is a cubic in the panel index, so each node's weight steps from panel
to panel by its first, second and third finite differences, the third one a
constant K = exp(48 b3) shared by every node; three exponentials seed each
node, and 3 * panels.bit_length() + 8 guard bits absorb the rounding, which
grows like the cube of the panel index.  Recurrence data is then extracted
twice (a Stieltjes bordering pass, and a direct Hankel solve per degree, one
LU factorization of each block serving both the solve and its condition
number) so that conditioning loss shows up as a measured number instead of
silently eating digits.

The string equations and the Toda relation are integration-by-parts and
determinant identities of the moment data, valid wherever the Hankel minors
are nonsingular.  The diagnostics here therefore run for any coupling with a
convergent weight, including couplings past the critical one, where the
1/N^2 comparison needs the analytically continued (complex) branch of the
leading coefficient function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import lshift, mul, rshift

from mpmath import extraprec, mp, workdps, workprec
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_exp, to_fixed

from .precision import BigFloat, rational_to_mp
from .quadrature import gauss_legendre

# The contour comes in from infinity along the ray at angle pi and goes back
# out along +pi/5 (weight alpha) or -pi/5 (weight 1 - alpha), angles in units
# of pi.  |exp(-N V)| = exp(-N (cos(2 theta) r^2/2 - u cos(3 theta) r^3)) dies
# along a ray for every u >= 0 when cos(2 theta) > 0 and cos(3 theta) < 0: at
# pi these are 1 and -1, at +/-pi/5 they are cos(2 pi/5) and -cos(2 pi/5).
_LEFT_ANGLE = Fraction(1)
_EXIT_ANGLE = Fraction(1, 5)
_NODES_PER_PANEL = 192  # Gauss-Legendre nodes on each panel of a ray

_QUAD_GUARD = 15  # extra working digits behind any quadrature target
_FIX_GUARD = 40  # fixed-point bits behind the working precision in the moment sums


def _as_mp(x):
    if isinstance(x, BigFloat):
        return mp.mpmathify(x.value)
    if isinstance(x, Fraction):
        return rational_to_mp(x)
    return mp.mpmathify(x)


def _decay_rate(angle: Fraction, u: float, N: int, r: float) -> float:
    # natural-log decay exponent of |exp(-N V)| at radius r along the ray
    theta = math.pi * float(angle)
    c2 = math.cos(2 * theta)
    c3 = math.cos(3 * theta)
    return N * (c2 * r * r / 2 - u * c3 * r ** 3)


def _decay_slope(angle: Fraction, u: float, N: int, r: float) -> float:
    # r times the radial derivative of the decay exponent: |r^j exp(-N V)|
    # peaks where this equals j, and falls beyond
    theta = math.pi * float(angle)
    return N * (math.cos(2 * theta) * r * r - 3 * u * math.cos(3 * theta) * r ** 3)


def _ray_radius(precision: int, angle: Fraction, u: float, N: int, j_max: int) -> float:
    """Truncation radius: the rung of the ladder 2 * 1.25^k where the tail bound closes.

    Past the integrand's peak, where decay'(r) r >= j_max + 1, the tail
    beyond r is at most r^(j_max + 1) |exp(-N V(r))|, and the bound asks that
    to fall e^5 below 10^-(precision + 12) (with r^(j_max + 1) read as 1 for
    r < 1).  The ladder climbs from r = 2 until the bound closes; if it
    closes at once, as for large N, it steps down while it still closes and
    r stays past the peak.
    """
    target = (precision + 12) * math.log(10) + 5

    def short(r: float) -> float:
        return target + (j_max + 1) * max(math.log(r), 0.0) - _decay_rate(angle, u, N, r)

    r = 2.0
    while short(r) > 0:
        r *= 1.25
        if r > 1e6:
            raise ValueError("tail bound does not close; weight does not decay on this ray")
    while short(r / 1.25) <= 0 and _decay_slope(angle, u, N, r / 1.25) >= j_max + 1:
        r /= 1.25
    return r


def _panel_count(precision: int, u: float, N: int, j_max: int, r_max: float) -> int:
    # Bernstein-ellipse estimate: an m-node panel of length L on which the
    # integrand's log-derivative is at most S errs like (e S L / 4m)^(2m),
    # so size L to push that under the quadrature target.
    slope = N * (r_max + 3 * u * r_max * r_max) + (j_max + 1) * math.sqrt(N)
    m = _NODES_PER_PANEL
    digits = precision + _QUAD_GUARD + 5
    bound = math.e * slope * r_max / (4 * m) * 10 ** (digits / (2 * m))
    panels = max(8, math.ceil(r_max * math.sqrt(N)), math.ceil(bound))
    if panels > 200_000:
        raise ValueError("precision target unreachable within the panel budget")
    return panels


def _normalized(re: int, im: int, exp: int, prec: int) -> tuple[int, int, int]:
    # (re + i im) 2^exp rescaled so that max(|re|, |im|) has exactly prec bits
    shift = max(abs(re), abs(im)).bit_length() - prec
    if shift >= 0:
        return re >> shift, im >> shift, exp + shift
    return re << -shift, im << -shift, exp + shift


def _exp_fixed(re: int, im: int, prec: int) -> tuple[int, int, int]:
    """exp(re + i im) for fixed-point re, im with prec fraction bits, normalized."""
    _, mag, exp, _ = mpf_exp(from_man_exp(re, -prec), prec)
    if not im:
        return _normalized(mag, 0, exp, prec)
    cos, sin = mpf_cos_sin(from_man_exp(im, -prec), prec)
    return _normalized(mag * to_fixed(cos, prec), mag * to_fixed(sin, prec), exp - prec, prec)


def _ray_moments(u_m, N: int, angle: Fraction, max_order: int, r_max: float, panels: int):
    """Outward moments along one ray: e^(i theta) * int_0^rmax (r e^(i theta))^j w dr.

    With z = r e^(i theta), each node adds a complex weight
    W = wt * hl * exp(-N V(z)) times the real power r^j, and the phase
    e^(i (j+1) theta) multiplies each order's sum once at the end.  The sums
    run on Python ints: r (in units of 2^-k) is fixed point with `bits`
    fraction bits, and each weight is a pair of mantissas (real, imaginary)
    with its own binary exponent, so a weight deep in the tail keeps its full
    relative precision before r^j amplifies it.  Each order is summed exactly
    at the smallest node exponent.  A real ray (theta = pi) carries one real
    mantissa list.

    No exponential is taken per node and panel.  The node x of panel p sits
    at r = h s with s = 2p + 1 + x, where the exponent -N V(z) is the cubic
    E(s) = b2 s^2 + b3 s^3; moving one panel out steps s by 2, so with the
    differences D(s) = E(s + 2) - E(s) and F(s) = D(s + 2) - D(s), and the
    third difference 48 b3, which is the same at every node,

        w_(p+1) = w_p exp(D_p),  exp(D_(p+1)) = exp(D_p) exp(F_p),
        exp(F_(p+1)) = exp(F_p) K,  K = exp(48 b3).

    Each node seeds w, exp(D) and exp(F) at s = 1 + x, so a ray takes
    3 * 192 + 1 exponentials whatever its panel count.  Each product rounds
    once, and by panel p the roundings of F have passed through D into w
    about p^3/6 times, which is also the order of the shift of E(s) from
    holding b2 and b3 in fixed point; the recurrence therefore runs at
    bits + 3 * panels.bit_length() + 8 bits, and each weight is cut to
    `bits` for the sums.
    """
    bits = mp.prec + _FIX_GUARD
    guard = 3 * panels.bit_length() + 8
    prec = bits + guard
    one = 1 << prec
    # lengths are held in units of 2^-k, k >= 0 lifting the peak of the top
    # order's integrand to at least 1/2 when a large N brings it lower, so that
    # r, r^j and the node weights keep their bits in fixed point; the binary
    # exponents take the 2^-k back
    peak = r_max  # within a factor 2 above the peak once the halving stops
    while _decay_slope(angle, float(u_m), N, peak / 2) >= max_order + 1:
        peak /= 2
    k = max(0, 1 - math.frexp(peak)[1])
    table = gauss_legendre(_NODES_PER_PANEL)
    num, den = math.ldexp(r_max, k).as_integer_ratio()
    hl = (num << bits) // (2 * panels * den)  # half the panel width
    xs = [to_fixed(x._mpf_, bits) for x, _ in table]
    whs = [to_fixed(w._mpf_, bits) * hl for _, w in table]  # 2 * bits fraction bits
    with workprec(prec + 20):
        h = mp.mpf((hl, -bits - k))
        theta = mp.mpf(angle.numerator) / angle.denominator
        b2 = -N * mp.expjpi(2 * theta) * h ** 2 / 2
        b3 = N * u_m * mp.expjpi(3 * theta) * h ** 3
        b2r, b2i, b3r, b3i = (to_fixed(v._mpf_, prec) for v in (b2.real, b2.imag, b3.real, b3.imag))
    real = not (b2i or b3i)

    def exp_cubic(c2: int, c3: int) -> tuple[int, int, int]:
        # exp(b2 c2 + b3 c3) for fixed-point c2, c3
        return _exp_fixed((b2r * c2 + b3r * c3) >> prec, (b2i * c2 + b3i * c3) >> prec, prec)

    kr, ki, ke = exp_cubic(0, 48 * one)
    rs, res, ims, exps = [], [], [], []
    for x, wh in zip(xs, whs):
        s = ((1 << bits) + x) << guard
        s2 = s * s >> prec
        s3 = s2 * s >> prec
        wr, wi, we = exp_cubic(s2, s3)
        wr, wi, we = _normalized(wr * wh, wi * wh, we - 2 * bits - k, prec)
        dr, di, de = exp_cubic(4 * s + 4 * one, 6 * s2 + 12 * s + 8 * one)
        fr, fi, fe = exp_cubic(8 * one, 24 * s + 48 * one)
        rs.extend(hl * (((2 * p + 1) << bits) + x) >> bits for p in range(panels))
        if real:
            for _ in range(panels):
                res.append(wr >> guard)
                exps.append(we + guard)
                wr *= dr
                n = abs(wr).bit_length() - prec
                wr >>= n
                we += de + n
                dr *= fr
                n = abs(dr).bit_length() - prec
                dr >>= n
                de += fe + n
                fr *= kr
                n = abs(fr).bit_length() - prec
                fr >>= n
                fe += ke + n
            continue
        for _ in range(panels):
            res.append(wr >> guard)
            ims.append(wi >> guard)
            exps.append(we + guard)
            wr, wi = wr * dr - wi * di, wr * di + wi * dr
            n = max(abs(wr), abs(wi)).bit_length() - prec
            wr, wi, we = wr >> n, wi >> n, we + de + n
            dr, di = dr * fr - di * fi, dr * fi + di * fr
            n = max(abs(dr), abs(di)).bit_length() - prec
            dr, di, de = dr >> n, di >> n, de + fe + n
            fr, fi = fr * kr - fi * ki, fr * ki + fi * kr
            n = max(abs(fr), abs(fi)).bit_length() - prec
            fr, fi, fe = fr >> n, fi >> n, fe + ke + n
    low = min(exps)
    offsets = [e - low for e in exps]
    parts = [res] if real else [res, ims]
    del res, ims  # each order's lists go as the next order replaces them
    acc = []
    for j in range(max_order + 1):
        if j:
            for i, m in enumerate(parts):
                parts[i] = list(map(rshift, map(mul, m, rs), repeat(bits)))
        value = mp.mpc(*(mp.mpf((sum(map(lshift, m, offsets)), low - k * j)) for m in parts))
        acc.append(value * mp.expjpi(mp.mpf((j + 1) * angle.numerator) / angle.denominator))
    return acc


def compute_moments(precision: int, u, N: int, max_order: int, alpha=1.0) -> list[BigFloat]:
    """Contour moments c_j = int_Gamma z^j exp(-N V(z)) dz for j = 0..max_order.

    Gamma comes in along the ray at pi and goes out along pi/5 with weight
    alpha and along -pi/5 with weight 1 - alpha; `precision` is the number
    of decimal digits the moments claim.
    """
    if precision < 15:
        raise ValueError("precision below a useful floor")
    if N < 1:
        raise ValueError("N must be a positive integer")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    with workdps(precision + _QUAD_GUARD):
        u_m = _as_mp(u)
        if mp.im(u_m) != 0 or u_m < 0:
            raise ValueError("the coupling must be real and nonnegative")
        u_f = float(u_m)
        if not math.isfinite(u_f):
            raise ValueError("the coupling is too large for the tail bound")
        alpha = mp.mpc(alpha)
        if not mp.isfinite(alpha):
            raise ValueError("alpha must be finite")

        def outward(angle: Fraction):
            r_max = _ray_radius(precision, angle, u_f, N, max_order)
            panels = _panel_count(precision, u_f, N, max_order, r_max)
            return _ray_moments(u_m, N, angle, max_order, r_max, panels)

        # the inbound left ray is shared by both contours, so its weight is 1
        left = outward(_LEFT_ANGLE)
        total = [-v for v in left]
        if alpha != 0:
            upper = outward(_EXIT_ANGLE)
            for j in range(max_order + 1):
                total[j] += alpha * upper[j]
        if alpha != 1:
            lower = outward(-_EXIT_ANGLE)
            for j in range(max_order + 1):
                total[j] += (1 - alpha) * lower[j]
        return [BigFloat(v, precision) for v in total]


def inner_product(moments, p_coeffs, q_coeffs) -> BigFloat:
    """<p, q> = sum_{i,j} p_i q_j c_{i+j} against precomputed moments (no conjugation)."""
    dps = min(m.dps for m in moments)
    with workdps(dps + _QUAD_GUARD):
        c = [_as_mp(m) for m in moments]
        if len(p_coeffs) + len(q_coeffs) - 1 > len(c):
            raise ValueError("moment table too short for this product")
        acc = mp.mpc(0)
        for i, pi in enumerate(p_coeffs):
            pi = _as_mp(pi)
            for j, qj in enumerate(q_coeffs):
                acc += pi * _as_mp(qj) * c[i + j]
        return BigFloat(acc, dps)


@dataclass(frozen=True)
class RecurrenceData:
    """Monic recurrence data extracted from a moment table.

    h[n] is the squared norm, gamma2[n] = h[n]/h[n-1] (gamma2[0] fixed at 0),
    beta[n] the diagonal coefficient; coefficients[n] are the monic polynomial
    coefficients from the bordering pass.  conditioning_loss[n] is the decimal
    cost of the n-th Hankel block, cross_check_digits the worst agreement
    between the bordering pass and the per-degree Hankel solves.
    """

    h: tuple
    gamma2: tuple
    beta: tuple
    coefficients: tuple
    dps: int
    conditioning_loss: tuple
    cross_check_digits: float


def _moment_against(coeffs, k: int, c) -> "mp.mpc":
    return mp.fsum(a * c[i + k] for i, a in enumerate(coeffs))


def recurrence_from_moments(moments, n_max: int) -> RecurrenceData:
    """h, gamma^2, beta for n <= n_max, with a Hankel-solve cross-check per degree."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if len(moments) < 2 * n_max + 2:
        raise ValueError(f"need moments through order {2 * n_max + 1}")
    dps = min(m.dps for m in moments)
    wdps = dps + _QUAD_GUARD
    with workdps(wdps):
        c = [_as_mp(m) for m in moments]
        scale = abs(c[0])
        if scale == 0:
            raise ArithmeticError("vanishing zeroth moment; no orthogonal family exists")
        floor = mp.mpf(10) ** (-(wdps - 10)) * scale

        h, beta, gamma2, coeffs = [], [], [mp.mpc(0)], []
        p_prev, p_cur = None, [mp.mpc(1)]
        for n in range(n_max + 1):
            hn = _moment_against(p_cur, n, c)
            if abs(hn) < floor:
                raise ArithmeticError(
                    f"Hankel data is numerically singular at n = {n}; "
                    f"lower n_max or raise the moment precision"
                )
            h.append(hn)
            if n >= 1:
                gamma2.append(h[n] / h[n - 1])
            bn = _moment_against(p_cur, n + 1, c) / hn
            if n >= 1:
                bn += p_cur[n - 1]
            beta.append(bn)
            coeffs.append(tuple(p_cur))
            if n < n_max:
                p_next = [mp.mpc(0)] + p_cur
                for i, a in enumerate(p_cur):
                    p_next[i] -= bn * a
                if p_prev is not None:
                    for i, a in enumerate(p_prev):
                        p_next[i] -= gamma2[n] * a
                p_prev, p_cur = p_cur, p_next

        # independent route: solve each Hankel system outright and compare
        losses = [0.0]
        solved = {0: []}
        worst = mp.inf
        for n in range(1, n_max + 1):
            M = mp.matrix(n, n)
            rhs = mp.matrix(n, 1)
            for k in range(n):
                for j in range(n):
                    M[k, j] = c[j + k]
                rhs[k] = -c[n + k]
            # one factorization, at the 10 extra bits lu_solve and inverse use,
            # gives both the solve and the inverse columns of the condition number
            with extraprec(10):
                lu, perm = mp.LU_decomp(M)
                inverse = [mp.U_solve(lu, mp.L_solve(lu, mp.unitvector(n, i), perm))
                           for i in range(1, n + 1)]
                a = list(mp.U_solve(lu, mp.L_solve(lu, rhs, perm)))
            inverse_norm = max(mp.fsum(col, absolute=True) for col in inverse)
            loss = float(mp.log10(mp.mnorm(M, 1) * inverse_norm))
            losses.append(loss)
            if loss > dps - 12:
                raise ArithmeticError(
                    f"Hankel conditioning exceeds the precision budget at n = {n} "
                    f"(about {loss:.0f} of {dps} digits)"
                )
            solved[n] = a
            ref = coeffs[n]
            top = max(max(abs(v) for v in ref), mp.mpf(1))
            dev = max(abs(a[i] - ref[i]) for i in range(n)) / top
            if dev > 0:
                worst = min(worst, -mp.log10(dev))
            h_again = _moment_against(a + [mp.mpc(1)], n, c)
            worst = min(worst, _digits_between(h_again, h[n]))
        for n in range(n_max):
            lower = solved[n][n - 1] if n >= 1 else mp.mpc(0)
            worst = min(worst, _digits_between(lower - solved[n + 1][n], beta[n]))

        return RecurrenceData(
            h=tuple(h),
            gamma2=tuple(gamma2),
            beta=tuple(beta),
            coefficients=tuple(coeffs),
            dps=dps,
            conditioning_loss=tuple(losses),
            cross_check_digits=float(worst),
        )


def _digits_between(a, b) -> float:
    scale = max(abs(a), abs(b), mp.mpf(1) / 10 ** 6)
    dev = abs(a - b) / scale
    if dev == 0:
        return mp.inf
    return -mp.log10(dev)


def string_residuals(data: RecurrenceData, u, N: int):
    """Residuals of both string identities, keyed by degree n.

    First identity: 3u (gamma2[n+1] + beta[n]^2 + gamma2[n]) - beta[n], for
    n < n_max.  Second: gamma2[n] (1 - 3u (beta[n] + beta[n-1])) - n/N, for
    1 <= n <= n_max.  Both vanish identically for exact moments.
    """
    n_max = len(data.h) - 1
    with workdps(data.dps + _QUAD_GUARD):
        u_m = _as_mp(u)
        r1 = {}
        for n in range(n_max):
            lhs = 3 * u_m * (data.gamma2[n + 1] + data.beta[n] ** 2 + data.gamma2[n])
            r1[n] = BigFloat(abs(lhs - data.beta[n]), data.dps)
        r2 = {}
        for n in range(1, n_max + 1):
            lhs = data.gamma2[n] * (1 - 3 * u_m * (data.beta[n] + data.beta[n - 1]))
            r2[n] = BigFloat(abs(lhs - mp.mpf(n) / N), data.dps)
        return r1, r2


_SMALL_W = 1 / 720  # 72|w| < 1/10: Newton for the small roots converges from y = 1 + 36 w


def _g0_branch(w, near):
    """Root of 72 x^3 - x^2 + w^2 nearest to `near`: the continued leading slice."""
    if abs(w) < _SMALL_W:
        # the roots x ~ +w and x ~ -w merge into a double root at 0 once w^2
        # falls below the working precision, where mp.polyroots stalls; with
        # x = s*y, s = +-w, they are the roots y ~ 1 of 72 s y^3 - y^2 + 1, and
        # the third root follows from their sum 1/72; the couplings the
        # expansion is checked at (|w| >= 1/400) stay on polyroots
        small = [s * _unit_root(72 * s) for s in (w, -w)]
        roots = small + [mp.mpf(1) / 72 - small[0] - small[1]]
    else:
        roots = mp.polyroots([mp.mpf(72), mp.mpf(-1), mp.mpf(0), w * w],
                             extraprec=80, maxsteps=200)
    return min(roots, key=lambda r: abs(r - near))


def _unit_root(c):
    """Root y = 1 + c/2 + O(c^2) of c y^3 - y^2 + 1, for |c| < 1/10, by Newton."""
    tol = mp.eps  # a step below it leaves an error of order its square
    with extraprec(20):
        y = 1 + c / 2
        step = 1
        while abs(step) >= tol:
            step = (c * y ** 3 - y * y + 1) / (3 * c * y * y - 2 * y)
            y -= step
    return +y


def _slice_values(g0, w):
    # closed forms on any branch; det is the Cramer denominator 1 - 108 g0;
    # b0 = (g0 - w)/(6 g0) with g0 - w = 72 g0^3/(g0 + w) from the cubic, which
    # keeps it when g0 and w agree to working precision
    det = 1 - 108 * g0
    g2 = 162 * g0 * (5 - 324 * g0) / det ** 4
    b0 = 12 * g0 * g0 / (g0 + w)
    b2 = 54 * w / (g0 * det ** 4)
    return g2, b0, b2


def expansion_prediction(u, N: int, gamma2_near):
    """(predicted gamma^2_N, predicted beta_N, branch tag) from the closed forms.

    gamma^2 uses the slice at s = 1, beta the half-shifted slice s = 1 + 1/(2N).
    gamma2_near (measured data) selects the branch of the leading cubic; past
    the critical coupling that branch is complex and the choice matters.
    """
    u_m = _as_mp(u)
    if u_m == 0:
        return mp.mpf(1), mp.mpf(0), "gaussian"
    w1 = u_m ** 2
    g0 = _g0_branch(w1, _as_mp(gamma2_near) * w1)
    g2, _, _ = _slice_values(g0, w1)
    pred_gamma = g0 / w1 + (u_m ** 2 * g2) / N ** 2
    s = 1 + mp.mpf(1) / (2 * N)
    ws = s * u_m ** 2
    g0s = _g0_branch(ws, g0)
    _, b0s, b2s = _slice_values(g0s, ws)
    pred_beta = b0s / u_m + (u_m ** 3 * b2s) / N ** 2
    if abs(mp.im(g0)) < mp.mpf(10) ** (-mp.dps // 2):
        branch = "real"
    elif mp.im(g0) > 0:
        branch = "upper"
    else:
        branch = "lower"
    return pred_gamma, pred_beta, branch


@dataclass(frozen=True)
class AsymptoticEntry:
    N: int
    gamma2: BigFloat
    beta: BigFloat
    gamma2_predicted: BigFloat
    beta_predicted: BigFloat
    epsilon_gamma: BigFloat
    epsilon_beta: BigFloat


def _asymptotic_entry(rec: RecurrenceData, u_m, N: int, precision: int) -> tuple[AsymptoticEntry, str]:
    """Measured gamma^2_N and beta_N against the two-term prediction, with its branch tag."""
    g_meas, b_meas = rec.gamma2[N], rec.beta[N]
    pred_g, pred_b, branch = expansion_prediction(u_m, N, g_meas)
    entry = AsymptoticEntry(
        N=N,
        gamma2=BigFloat(g_meas, precision),
        beta=BigFloat(b_meas, precision),
        gamma2_predicted=BigFloat(pred_g, precision),
        beta_predicted=BigFloat(pred_b, precision),
        epsilon_gamma=BigFloat(abs(g_meas - pred_g), precision),
        epsilon_beta=BigFloat(abs(b_meas - pred_b), precision),
    )
    return entry, branch


@dataclass(frozen=True)
class AsymptoticReport:
    u: BigFloat
    precision: int
    branch: str
    entries: tuple
    gamma_ratios: tuple
    beta_ratios: tuple


def check_asymptotic_expansion(u, N_list, precision: int = 80) -> AsymptoticReport:
    """Distance of gamma^2_N and beta_N from the two-term 1/N^2 prediction.

    epsilon(N) should shrink like N^-4, so doubling N divides it by about 16;
    the consecutive ratios are reported alongside the per-N entries.  Report
    only: scaling conclusions are left to the caller.
    """
    entries = []
    branch = "unset"
    with workdps(precision + _QUAD_GUARD):
        u_m = _as_mp(u)
        for N in sorted(N_list):
            moments = compute_moments(precision, u_m, N, 2 * N + 1)
            rec = recurrence_from_moments(moments, N)
            entry, branch = _asymptotic_entry(rec, u_m, N, precision)
            entries.append(entry)
        g_ratios, b_ratios = [], []
        for prev, cur in zip(entries, entries[1:]):
            for eps_prev, eps_cur, sink in (
                (prev.epsilon_gamma, cur.epsilon_gamma, g_ratios),
                (prev.epsilon_beta, cur.epsilon_beta, b_ratios),
            ):
                ep = _as_mp(eps_prev)
                ratio = _as_mp(eps_cur) / ep if ep > 0 else mp.inf
                sink.append(BigFloat(ratio, precision))
        return AsymptoticReport(
            u=BigFloat(u_m, precision),
            precision=precision,
            branch=branch,
            entries=tuple(entries),
            gamma_ratios=tuple(g_ratios),
            beta_ratios=tuple(b_ratios),
        )


def _coupling_of_time(t):
    return 1 / (3 * (4 * t) ** mp.mpf("0.75"))


def toda_residual(u, N: int, h_step, precision: int = 80, alpha=1.0) -> BigFloat:
    """|second time-difference of the free energy - gamma-tilde^2_N|.

    The free energy in the shifted variable splits into the smooth map part
    2/3 t^(3/2) - ln(4t)/4 plus (1/N^2) sum ln h_n; constants drop in the
    second difference, and each h_n enters through the ratio
    h_n(t+h) h_n(t-h) / h_n(t)^2, which sits near 1 so the principal log is
    branch-safe even for complex h_n.
    """
    wdps = max(precision, 8 * (N + 1)) + 30
    with workdps(wdps):
        u_m = _as_mp(u)
        if u_m <= 0:
            raise ValueError("the time map needs u > 0")
        h = _as_mp(h_step)
        if h <= 0:
            raise ValueError("h_step must be positive")
        t0 = 1 / (4 * (3 * u_m) ** (mp.mpf(4) / 3))
        recs = []
        for t in (t0 - h, t0, t0 + h):
            u_t = _coupling_of_time(t)
            moments = compute_moments(wdps - _QUAD_GUARD, u_t, N, 2 * N + 1, alpha=alpha)
            recs.append(recurrence_from_moments(moments, N))
        lo, mid, hi = recs
        worst_loss = max(max(r.conditioning_loss) for r in recs)
        headroom = (wdps - _QUAD_GUARD - worst_loss) - 2 * float(mp.log10(1 / h)) - 8
        if headroom < 6:
            raise ArithmeticError(
                "second difference would be quadrature noise; raise precision or h_step"
            )

        def smooth(t):
            return 2 * t ** mp.mpf("1.5") / 3 - mp.log(4 * t) / 4

        d2 = smooth(t0 - h) - 2 * smooth(t0) + smooth(t0 + h)
        for n in range(N):
            d2 += mp.log(lo.h[n] * hi.h[n] / mid.h[n] ** 2) / N ** 2
        gamma_tilde2 = mid.gamma2[N] / (2 * mp.sqrt(t0))
        return BigFloat(abs(d2 / h ** 2 - gamma_tilde2), precision)


@dataclass(frozen=True)
class FiniteNReport:
    """Everything the finite-N validation measures at one (u, N)."""

    N: int
    u: BigFloat
    alpha: complex
    precision: int
    n_max: int
    moments: tuple
    h: tuple
    gamma2: tuple
    beta: tuple
    string_r1: dict
    string_r2: dict
    max_string_residual: BigFloat
    conditioning_loss: tuple
    cross_check_digits: float
    asymptotic: AsymptoticEntry
    branch: str
    toda: BigFloat | None


def build_report(u, N: int, precision: int = 120, alpha=1.0, n_max: int | None = None,
                 include_toda: bool = False, h_step=Fraction(1, 1000)) -> FiniteNReport:
    """One-stop validation: moments, recurrence data, residuals, expansion check.

    Working precision follows max(80, 8 * n_max, precision); the reported
    values claim only `precision` digits.  A singular or budget-breaking
    Hankel block raises with the failing degree rather than reporting a
    shortened table.
    """
    if n_max is None:
        n_max = 3 * N // 2 + 1
    if n_max < N + 1:
        raise ValueError("n_max must reach N + 1 so gamma^2_{N+1} exists")
    wdps = max(80, 8 * n_max, precision)
    with workdps(wdps + _QUAD_GUARD):
        u_m = _as_mp(u)
        moments = compute_moments(wdps, u_m, N, 2 * n_max + 1, alpha=alpha)
        rec = recurrence_from_moments(moments, n_max)
        r1, r2 = string_residuals(rec, u_m, N)
        lo_n, hi_n = N // 2, min(3 * N // 2, n_max)
        window = [_as_mp(r1[n]) for n in r1 if lo_n <= n <= hi_n]
        window += [_as_mp(r2[n]) for n in r2 if lo_n <= n <= hi_n]
        worst = max(window)
        entry, branch = _asymptotic_entry(rec, u_m, N, precision)
        toda = None
        if include_toda:
            toda = toda_residual(u_m, N, h_step, precision=precision, alpha=alpha)
        return FiniteNReport(
            N=N,
            u=BigFloat(u_m, precision),
            alpha=complex(alpha),
            precision=precision,
            n_max=n_max,
            moments=tuple(BigFloat(_as_mp(m), precision) for m in moments),
            h=tuple(BigFloat(v, precision) for v in rec.h),
            gamma2=tuple(BigFloat(v, precision) for v in rec.gamma2),
            beta=tuple(BigFloat(v, precision) for v in rec.beta),
            string_r1={n: BigFloat(_as_mp(v), precision) for n, v in r1.items()},
            string_r2={n: BigFloat(_as_mp(v), precision) for n, v in r2.items()},
            max_string_residual=BigFloat(worst, precision),
            conditioning_loss=rec.conditioning_loss,
            cross_check_digits=rec.cross_check_digits,
            asymptotic=entry,
            branch=branch,
            toda=toda,
        )
