"""Finite-N orthogonal-polynomial data on a smooth contour.

Everything past the moments is linear algebra, so the analytic error budget
lives in the quadrature.  The contour is z = s zeta(t), zeta = t (1 + (omega
- 1) sigma), omega = e^(i pi/5), sigma = (1 + tanh(t/tau))/2: in from infinity
along the ray at pi, out along pi/5, turned between them along the chord from
1 to omega; its mirror image goes out along -pi/5 and has the conjugate
moments.  sigma's poles are tanh's, so the integrand is analytic on the strip
|Im t| < pi tau/2, and the trapezoidal rule with step h errs by at most
2 M(a)/(e^(2 pi a/h) - 1), M(a) the integrand's L1 norm on the lines
Im t = +-a (Trefethen & Weideman, SIAM Rev. 56 (2014), Thm 5.1).
`_path_rule` takes a = pi tau/4, bounds M(a) from float samples, sets h = 1/n
from it, cuts the sum where radial tail bounds on the path close, and takes
the tau of a short ladder that needs the fewest nodes; the nodes t = k/n are
exact at the working precision.  The chord turn costs no transcendental per
node: sigma = 1/(1 + E_k) with E_k = e^(-2k/(n tau)) a geometric progression,
so each node pays one exponential and one cosine-sine pair, both of -N V.
The moment sums run in fixed-point Python integers, each node's weight with
its own binary exponent.  The nodes are independent terms, so they split
into consecutive chunks, which with 2 or more usable CPUs this process and
forked children share, each taking the next chunk as it finishes one.
Where they are as many as the usable CPUs, each of these processes is
pinned to a CPU of its own while they share: left to the scheduler, a
freshly forked child stayed on its parent's CPU for hundreds of
milliseconds, the two taking turns in 4 ms slices, and the shared sums ran
slower than serial ones.  Each chunk returns its order sums exact at its
least binary exponent; shifted to the least exponent of all and added,
they give the serial sums bit for bit however the nodes were split and
shared.  Recurrence data is then extracted twice: by a Stieltjes bordering
pass in mpmath, and by one elimination of the Hankel matrix in fixed-point
integers that also gives every block's condition number, so conditioning
loss shows up as a measured number instead of eating digits.

The string equations and the Toda relation are integration-by-parts and
determinant identities of the moment data, valid wherever the Hankel minors
are nonsingular.  The diagnostics here therefore run for any coupling with a
convergent weight, including couplings past the critical one, where the
1/N^2 comparison reads ``hierarchy``'s slice root on its continued (complex)
branch, and order 1 at that root.
"""

from __future__ import annotations

import cmath
import functools
import marshal
import math
import os
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import add, lshift, mul, rshift, sub
from typing import NamedTuple

from .hierarchy import order_1_at, slice_b0, slice_root
from .precision import BigFloat, as_mp

# Along the path, |exp(-N V(s zeta))| = exp(-b r^2 cos(2 theta)/2 + c r^3 cos(3 theta))
# at zeta = r e^(i theta).  Inbound, theta lies within pi/10 of pi, where both
# terms decay; outbound, theta climbs from pi/10 to pi/5, and the cubic term
# decays only once theta has passed pi/6, where cos(3 theta) turns negative.
_COS_EXIT = math.cos(2 * math.pi / 5)  # the least cos(2 theta) outbound
_CHORD = cmath.exp(1j * math.pi / 5) - 1  # omega - 1
# for real t, zeta'(t) = rho + (omega - 1) x sech^2(x)/2 with rho = 1 + (omega -
# 1) sigma and x = t/tau, where |rho| <= 1, |omega - 1| = 2 sin(pi/10) and
# max_x |x| sech^2 x = 0.4477, so |zeta'| <= 1.1384; |zeta| = |t| |rho| with
# |rho|^2 = 1 - 2 (1 - cos(pi/5)) sigma (1 - sigma) growing outward, so
# d|zeta|/d|t| >= |rho| >= cos(pi/10), and |zeta'| <= 1.197 d|zeta|/d|t|
_DZETA_MAX = 1.2
_TAUS = (1, 2, 3, 4, 6, 8, 12, 16)  # turning widths the rule may take; 8 is tried first
_STEP = 0.5  # spacing of the float samples behind the rule's bounds

# The strip and tail bounds that fix h = 1/n, tau and the node range are asked
# for precision + _QUAD_GUARD digits relative to the integrand's L1 norm on
# the path; the working precision, at which the nodes t = k/n are exact,
# carries the same guard, and the moments are claimed to `precision`.
_QUAD_GUARD = 15
_FIX_GUARD = 40  # fixed-point bits behind the working precision in the moment sums
_NODE_GUARD = 20  # bits behind those at which each node's weight is evaluated
_HANKEL_GUARD = 40  # bits past the working precision that the Hankel elimination keeps on its least moment
_NORM_BITS = 100  # bits the largest entry of M_n^-1 keeps in the condition numbers' 1-norms
# least nodes per process sharing the moment sums: on a 2-core host, with
# each process pinned, a fork round trip cost 2-3.7 ms and a node 65-75 us at
# 80 digits, so 100 nodes repay a fork about twice over
_PROCESS_NODES = 100
# chunks of nodes per process: a process that finishes early idles for at
# most one chunk, while the one beside it ends its last
_CHUNKS_PER_PROCESS = 8


def _path_scale(u_m, N: int):
    """(s, b, c) with -N V(s zeta) = -b zeta^2/2 + c zeta^3 and max(b, c) = 1.

    s = N^(-1/2) holds the Gaussian width at 1 in zeta whatever N is; when
    the cubic term dominates at that scale (u^2 > N), s = (u N)^(-1/3) holds
    the cubic at 1 instead.
    """
    from mpmath import mp

    if u_m * u_m <= N:
        s = 1 / mp.sqrt(N)
        return s, mp.mpf(1), u_m * s
    s = mp.cbrt(1 / (u_m * N))
    return s, N * s * s, mp.mpf(1)


def _turn(t, tau: int):
    """(rho, sigma') with zeta = t rho on the chord turn, at real or complex t."""
    th = cmath.tanh(t / tau)
    return 1 + _CHORD * (1 + th) / 2, (1 - th * th) / (2 * tau)


def _log_terms(t: complex, tau: int, b: float, c: float) -> tuple[float, float]:
    """(log|exp(-b zeta^2/2 + c zeta^3) zeta'(t)|, log|zeta(t)|) at complex t."""
    rho, dsigma = _turn(t, tau)
    zeta = t * rho
    dzeta = rho + _CHORD * t * dsigma
    phi = zeta * zeta * (c * zeta - b / 2)
    return phi.real + math.log(abs(dzeta)), math.log(abs(zeta))


def _log_envelope(samples, j_max: int) -> list[float]:
    """max over the samples (A, B) of A + j B for j = 0..j_max: with A, B from
    `_log_terms`, the log of the largest sampled |zeta^j exp(...) zeta'|.  A
    sample that another beats in both A and B never attains it."""
    front = []
    for A, B in sorted(samples, key=lambda p: -p[1]):
        if not front or A > front[-1][0]:
            front.append((A, B))
    return [max(A + j * B for A, B in front) for j in range(j_max + 1)]


def _grid(x0: float, x1: float) -> list[float]:
    # midpoints of the _STEP cells of [x0, x1]; with x0 a multiple of _STEP,
    # as on the real line, t = 0 (where zeta = 0) is never one
    return [x0 + (k + 0.5) * _STEP for k in range(int((x1 - x0) / _STEP))]


def _radial_decay(t: float, tau: int, b: float, c: float, j_max: int) -> tuple[float, float] | None:
    """(g(r), log r) of the tail bound past t, r = |zeta(t)|, or None while it does not hold yet.

    Beyond t, arg zeta only moves further toward the ray it approaches and
    |zeta| only grows, so |exp(-b zeta^2/2 + c zeta^3)| <= exp(-g(|zeta|)),
    g(r) = b c2 r^2/2 + c c3 r^3 with c2, c3 read at t.  Once r g'(r) >=
    j_max + 2, r^j exp(-g) falls faster than 1/r^2 for every order j, so the
    tail integral, taken in r, and the tail of the trapezoidal sum are both
    at most (|zeta'|/(d|zeta|/dt)) r^(j+1) exp(-g(r)); log _DZETA_MAX is taken
    off the returned g.
    """
    rho, _ = _turn(t, tau)
    theta = cmath.phase(rho)
    if t > 0:
        c2, c3 = _COS_EXIT, -math.cos(3 * theta)
        if c3 < 0:
            return None
    else:
        # inbound, arg zeta = pi + theta with theta shrinking toward 0
        c2, c3 = math.cos(2 * theta), math.cos(3 * theta)
    r = abs(t * rho)
    if b * c2 * r * r + 3 * c * c3 * r ** 3 < j_max + 2:
        return None
    return b * c2 * r * r / 2 + c * c3 * r ** 3 - math.log(_DZETA_MAX), math.log(r)


@functools.lru_cache(maxsize=256)
def _rule_for(target: float, b: float, c: float, j_max: int, tau: int) -> tuple[int, int, int, int]:
    """(tau, n, k_lo, k_hi) meeting an error of e^-target relative to the path's L1 norm."""

    def edge(sign: int) -> float:
        t = sign * _STEP
        while _radial_decay(t, tau, b, c, j_max) is None:
            t += sign * _STEP
        return t

    # outside this window the radial bound falls for every order, so the
    # integrand's peaks lie inside it
    lo, hi = edge(-1), edge(1)
    m0 = _log_envelope([_log_terms(x, tau, b, c) for x in _grid(lo, hi)], j_max)

    def closed(t: float) -> bool:
        g, log_r = _radial_decay(t, tau, b, c, j_max)
        return all((j + 1) * log_r - g <= m - target for j, m in enumerate(m0))

    while not closed(lo):
        lo -= _STEP
    while not closed(hi):
        hi += _STEP
    # M(a) on both lines Im t = +-a, out to where the exit ray's asymptotics
    # decay on them (Re of the cubic turns negative by Re t = 9.3 a)
    a = math.pi * tau / 4
    x0, x1 = min(lo, -2 * a), max(hi, 10 * a)
    ma = _log_envelope([_log_terms(complex(x, y), tau, b, c) for x in _grid(x0, x1) for y in (a, -a)], j_max)
    # the largest sample times the window's length bounds each line integral;
    # the path's own norm is read as its largest sample, the integrand's
    # peaks being about unit width in t at the scale s
    growth = max(p - q for p, q in zip(ma, m0)) + math.log(x1 - x0)
    n = math.ceil((target + math.log(2) + growth) / (2 * math.pi * a))
    return tau, n, math.floor(lo * n), math.ceil(hi * n)


def _path_rule(precision: int, b: float, c: float, j_max: int) -> tuple[int, int, int, int]:
    """(tau, n, k_lo, k_hi): turning width tau and the nodes t = k/n, k_lo <= k <= k_hi.

    The strip and tail errors are each held below 10^-(precision +
    _QUAD_GUARD) times the path's L1 norm, order by order.  A wide turn
    allows a wide strip, but the strip's lines see the integrand grow, the
    more so the larger the cubic; the ladder is walked from 8 while the node
    count falls.
    """
    target = (precision + _QUAD_GUARD) * math.log(10)

    def nodes(i: int) -> int:
        _, _, k_lo, k_hi = _rule_for(target, b, c, j_max, _TAUS[i])
        return k_hi - k_lo + 1

    best = _TAUS.index(8)
    for step in (1, -1):
        i = best + step
        while 0 <= i < len(_TAUS) and nodes(i) < nodes(best):
            best, i = i, i + step
    return _rule_for(target, b, c, j_max, _TAUS[best])


def _turning_factors(n: int, tau: int, k_max: int, prec: int) -> list[int]:
    """E_k = e^(-2k/(n tau)) for k = 0..k_max, fixed point at `prec` fraction bits.

    A geometric progression from E_0 = 1 by the ratio e^(-2/(n tau)), run at
    g = bit_length(k_max) + 2 guard bits: the ratio errs by under 1.01 units of
    the guarded last place and each step truncates, so E_k errs there by
    under 2.01 k < 2^g units, and cut to `prec` bits every E_k is within 2
    units of its last place of the exact value.
    """
    from mpmath.libmp import from_man_exp, mpf_exp, to_fixed

    guard = k_max.bit_length() + 2
    p = prec + guard
    ratio = to_fixed(mpf_exp(from_man_exp(-(2 << (p + 10)) // (n * tau), -(p + 10)), p + 10), p)
    factors = [1 << p]
    for _ in range(k_max):
        factors.append(factors[-1] * ratio >> p)
    return [e >> guard for e in factors]


def _process_count(nodes: int) -> int:
    """How many processes `_path_moments` shares its nodes among: this one and forked children.

    More than one only where forking is sound and pays: `os.fork` exists, no
    second Python thread runs (a child would inherit the locks it holds), at
    least 2 CPUs are usable, and each process gets at least _PROCESS_NODES nodes.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, nodes // _PROCESS_NODES))


def _chunk_ranges(k_lo: int, k_hi: int, chunks: int) -> list[tuple[int, int]]:
    """`chunks` consecutive ranges (lo, hi), lo <= k <= hi, of sizes within one, that partition k_lo..k_hi."""
    size, extra = divmod(k_hi - k_lo + 1, chunks)
    ranges = []
    for i in range(chunks):
        hi = k_lo + size + (i < extra) - 1
        ranges.append((k_lo, hi))
        k_lo = hi + 1
    return ranges


def _set_affinity(cpus: set) -> bool:
    """Restrict this process to `cpus`; False where the call is refused."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _shared_map(fn, arg_list: list, processes: int) -> list:
    """[fn(*args) for args in arg_list], shared by this process and processes - 1 forked children.

    The indices of arg_list (at most 256) wait in a pipe, one byte each, and
    every process takes the next as it finishes one, so a process on a busy
    core takes fewer.  Where the processes are as many as this one's usable
    CPUs, process i runs alone on the i-th lowest of them (this one is
    process 0): this one pins itself before it forks, each child as its
    first action, and this one's own mask comes back before this returns or
    raises.  Where the affinity call is missing or refused, that process
    runs unpinned; with fewer or more processes than CPUs, every process
    does.  A child sends its {index: result} back through a pipe of its own
    as marshal bytes and always leaves by os._exit, with status 1 on any
    exception (a parent that is gone shows as a broken pipe).  Where a fork
    raises OSError, the processes already running take its share.  Every
    child is reaped before this returns or raises; a nonzero status or a
    short payload raises.
    """
    tasks, fill = os.pipe()
    with open(fill, "wb") as pipe:
        pipe.write(bytes(range(len(arg_list))))

    def take() -> dict:
        done = {}
        while index := os.read(tasks, 1):
            done[index[0]] = fn(*arg_list[index[0]])
        return done

    # pinned only where each usable CPU gets one process, so that every CPU
    # is busy whichever process it holds
    mask = os.sched_getaffinity(0) if processes > 1 and hasattr(os, "sched_getaffinity") else set()
    cpus = sorted(mask) if len(mask) == processes else []

    children = {}  # pid -> the read end of its pipe
    try:
        if cpus:
            _set_affinity({cpus[0]})
        for i in range(1, processes):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                status = 1
                try:
                    # where its own CPU is refused, off its parent's one CPU onto the whole mask
                    if cpus and not _set_affinity({cpus[i]}):
                        _set_affinity(mask)
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps(take()))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[pid] = open(r, "rb")
        done = take()
        payloads = [pipe.read() for pipe in children.values()]
    finally:
        if cpus:
            _set_affinity(mask)
        # a child still writing sees its pipe close, so no wait below can hang
        os.close(tasks)
        for pipe in children.values():
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in children]
    for status, data in zip(statuses, payloads):
        if status:
            raise RuntimeError(f"a moment process exited with wait status {status}")
        try:
            done.update(marshal.loads(data))
        except (EOFError, ValueError):
            raise RuntimeError("a moment process sent a short payload") from None
    return [done[i] for i in range(len(arg_list))]


def _node_sums(k_lo: int, k_hi: int, n: int, tau: int, max_order: int, bits: int,
               half_b: int, c_fix: int, turning: list) -> tuple[int, list, list]:
    """(low, re, im): order j's weighted sum over nodes k_lo..k_hi is (re[j] + i im[j]) 2^low.

    Each node's weight W = exp(-b zeta^2/2 + c zeta^3) zeta'(t) is evaluated
    in fixed point at `bits` + _NODE_GUARD bits and kept as two mantissas
    (real, imaginary) of `bits` bits with its own binary exponent, so a
    weight deep in the tail keeps its full relative precision before zeta^j
    amplifies it.  The turn needs no transcendental per node: sigma comes from
    the turning factors and omega = (1 + sqrt 5)/4 + i sin(pi/5) is algebraic.
    zeta is fixed point with `bits` fraction bits, each order multiplies every
    mantissa by it once, and each order is summed exactly at the range's
    least node exponent, low.
    """
    from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_exp, to_fixed

    prec = bits + _NODE_GUARD
    one = 1 << prec
    # omega - 1 = (cos(pi/5) - 1, sin(pi/5)), cos(pi/5) = (1 + sqrt 5)/4
    cos5 = (one + math.isqrt(5 << 2 * prec)) >> 2
    ar, ai = cos5 - one, math.isqrt((one << prec) - cos5 * cos5)
    nodes = []
    for k in range(k_lo, k_hi + 1):
        t = (k << prec) // n
        # sigma = 1/(1 + E_|k|) for k >= 0 and sigma(-t) = 1 - sigma(t);
        # sigma' = (2/tau) sigma (1 - sigma)
        sigma = (one << prec) // (one + turning[abs(k)])
        if k < 0:
            sigma = one - sigma
        dsigma = 2 * (sigma * (one - sigma) >> prec) // tau
        # zeta = t rho, rho = 1 + (omega - 1) sigma, zeta' = rho + (omega - 1) t sigma'
        rr, ri = one + (ar * sigma >> prec), ai * sigma >> prec
        zr, zi = t * rr >> prec, t * ri >> prec
        q = t * dsigma >> prec
        dr, di = rr + (ar * q >> prec), ri + (ai * q >> prec)
        # phi = zeta^2 (c zeta - b/2)
        sr, si = (zr * zr - zi * zi) >> prec, 2 * zr * zi >> prec
        fr, fi = (c_fix * zr >> prec) - half_b, c_fix * zi >> prec
        _, man, exp, _ = mpf_exp(from_man_exp((sr * fr - si * fi) >> prec, -prec), prec)
        cos, sin = mpf_cos_sin(from_man_exp((sr * fi + si * fr) >> prec, -prec), prec)
        er, ei = to_fixed(cos, prec), to_fixed(sin, prec)
        # e^(i Im phi) zeta' has modulus >= cos(pi/10) at 2 * prec fraction
        # bits, so the cut to `bits` bits is a right shift
        wr, wi = man * (er * dr - ei * di), man * (er * di + ei * dr)
        shift = max(abs(wr), abs(wi)).bit_length() - bits
        nodes.append((zr >> _NODE_GUARD, zi >> _NODE_GUARD, wr >> shift, wi >> shift, exp - 2 * prec + shift))
    zrs, zis, res, ims, exps = map(list, zip(*nodes))
    low = min(exps)
    offsets = [e - low for e in exps]
    re_sums, im_sums = [], []
    for j in range(max_order + 1):
        if j:
            res, ims = (
                list(map(rshift, map(sub, map(mul, res, zrs), map(mul, ims, zis)), repeat(bits))),
                list(map(rshift, map(add, map(mul, res, zis), map(mul, ims, zrs)), repeat(bits))),
            )
        re_sums.append(sum(map(lshift, res, offsets)))
        im_sums.append(sum(map(lshift, ims, offsets)))
    return low, re_sums, im_sums


def _path_moments(s, b, c, max_order: int, tau: int, n: int, k_lo: int, k_hi: int):
    """h * sum over k_lo <= k <= k_hi of z^j exp(-N V(z)) z'(t) at t = k h, h = 1/n.

    `_node_sums` forms each chunk of nodes' order sums exactly on integers,
    _CHUNKS_PER_PROCESS chunks for each of the `_process_count` processes
    that share them; shifted to the least exponent over all chunks and
    added, they are the one-chunk sums bit for bit, however the nodes were
    split and whichever process took a chunk.  s^(j+1) h turns the zeta
    moments into z moments.
    """
    from mpmath import mp, workprec
    from mpmath.libmp import to_fixed

    bits = mp.prec + _FIX_GUARD
    prec = bits + _NODE_GUARD
    with workprec(prec + 10):
        half_b, c_fix = (to_fixed(v._mpf_, prec) for v in (b / 2, c))
    turning = _turning_factors(n, tau, max(-k_lo, k_hi), prec)
    nodes = k_hi - k_lo + 1
    processes = _process_count(nodes)
    # `_shared_map` hands out chunk indices as single bytes
    ranges = _chunk_ranges(k_lo, k_hi, min(nodes, 256, _CHUNKS_PER_PROCESS * processes))
    chunks = _shared_map(_node_sums, [(lo, hi, n, tau, max_order, bits, half_b, c_fix, turning) for lo, hi in ranges],
                         processes)
    low = min(e for e, _, _ in chunks)
    acc = []
    scale = s / n
    for j in range(max_order + 1):
        re = sum(res[j] << e - low for e, res, _ in chunks)
        im = sum(ims[j] << e - low for e, _, ims in chunks)
        acc.append(mp.mpc(mp.mpf((re, low)), mp.mpf((im, low))) * scale)
        scale *= s
    return acc


def compute_moments(precision: int, u, N: int, max_order: int, alpha=1.0) -> list[BigFloat]:
    """Contour moments c_j = int_Gamma z^j exp(-N V(z)) dz for j = 0..max_order.

    Gamma comes in along the ray at pi and goes out along pi/5 with weight
    alpha and along -pi/5 with weight 1 - alpha; `precision` is the number
    of decimal digits the moments claim.
    """
    from mpmath import mp, workdps

    if precision < 15:
        raise ValueError("precision below a useful floor")
    if N < 1:
        raise ValueError("N must be a positive integer")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    with workdps(precision + _QUAD_GUARD):
        u_m = as_mp(u)
        if mp.im(u_m) != 0 or u_m < 0:
            raise ValueError("the coupling must be real and nonnegative")
        if not math.isfinite(float(u_m)):
            raise ValueError("the coupling is too large for the tail bound")
        alpha = mp.mpc(alpha)
        if not mp.isfinite(alpha):
            raise ValueError("alpha must be finite")
        s, b, c = _path_scale(u_m, N)
        rule = _path_rule(precision, float(b), float(c), max_order)
        upper = _path_moments(s, b, c, max_order, *rule)
        # the weight is real on the real axis, so the mirror path's moments
        # are the conjugates
        return [BigFloat(alpha * v + (1 - alpha) * mp.conj(v), precision) for v in upper]


class RecurrenceData(NamedTuple):
    """Monic recurrence data extracted from a moment table.

    h[n] is the squared norm, gamma2[n] = h[n]/h[n-1] (gamma2[0] fixed at 0),
    beta[n] the diagonal coefficient; coefficients[n] are the monic polynomial
    coefficients from the bordering pass.  conditioning_loss[n] is log10 of the
    1-norm condition number of the leading n x n Hankel block, cross_check_digits
    the worst agreement in digits of p_n, h_n, beta_n with the fixed-point elimination's.
    """

    h: tuple
    gamma2: tuple
    beta: tuple
    coefficients: tuple
    dps: int
    conditioning_loss: tuple
    cross_check_digits: float


def _moment_against(coeffs, k: int, c) -> "mp.mpc":
    from mpmath import mp

    return mp.fsum(a * c[i + k] for i, a in enumerate(coeffs))


def _axpy(y, m, x, bits: int):
    """y + m x on split (real list, imaginary list) fixed-point vectors, m = (re, im) at `bits` fraction bits."""
    (yr, yi), (mr, mi), (xr, xi) = y, m, x
    return (list(map(add, yr, map(rshift, map(sub, map(mul, xr, repeat(mr)), map(mul, xi, repeat(mi))), repeat(bits)))),
            list(map(add, yi, map(rshift, map(add, map(mul, xi, repeat(mr)), map(mul, xr, repeat(mi))), repeat(bits)))))


def recurrence_from_moments(moments, n_max: int) -> RecurrenceData:
    """h, gamma^2, beta for n <= n_max, cross-checked by a Hankel elimination.

    The elimination runs on split real and imaginary Python integers, and it
    does not pivot: its pivots h_n = det M_(n+1)/det M_n are small only where
    the bordering pass has already raised.  It shares no arithmetic with that
    pass's mpmath three-term recurrence, so their agreement is a measurement.
    """
    from mpmath import mp, workdps
    from mpmath.libmp import to_fixed

    def fixed(v, bits: int) -> tuple[int, int]:
        return tuple(to_fixed(part, bits) for part in mp.mpc(v)._mpc_)

    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if len(moments) < 2 * n_max + 2:
        raise ValueError(f"need moments through order {2 * n_max + 1}")
    dps = min(m.dps for m in moments)
    wdps = dps + _QUAD_GUARD
    with workdps(wdps):
        c = [mp.mpmathify(m.value) for m in moments]
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

        # independent route: one elimination M = L D L^T in fixed point.  Row k of
        # U = D L^T is row k of M less multiples of the rows above; the same multiples
        # off e_k give p_k, row k of L^-1, and D[k] = h_k.  Row n is reduced in w =
        # [p_n so far | its columns from k on] by [p_k | U_k past column k] / h_k, and
        # M_n^-1 = sum_(k<n) p_k p_k^T / h_k.  Elimination errs absolutely (Higham 2002,
        # ch. 9); the moments enter over 2^e, e the largest's binary exponent, at F bits,
        # enough that the least moment above 2^(e - working bits) keeps working + guard bits
        e = max(map(mp.mag, c))
        F = mp.prec + _HANKEL_GUARD + e - min(s for s in map(mp.mag, c) if s > e - mp.prec)
        cr, ci = zip(*(fixed(v, F - e) for v in c))
        mags = list(map(math.isqrt, map(add, map(mul, cr, cr), map(mul, ci, ci))))
        # M_n^-1 row-major in split real and imaginary lists, S entries a row, zero past column n - 1
        S = n_max + 1
        rows, inv_r, inv_i, losses = [], [], [], []
        worst, lower, floor_h, floor_b = Fraction(0), (0, 0), *(fixed(mp.mpf(10) ** -6, f)[0] for f in (F - e, F))

        def gap(a, b, floor):  # max |a_j - b_j|^2 / max(|a_j|^2, |b_j|^2, floor^2)
            return Fraction(max((x - u) ** 2 + (y - v) ** 2 for (x, y), (u, v) in zip(a, b)),
                            max(floor * floor, *(x * x + y * y for x, y in a + b)))

        for n in range(n_max + 1):
            loss = 0.0  # a block of size 0 or 1 has condition number 1 exactly
            if n >= 2:
                # shifted right until the largest entry keeps _NORM_BITS bits, the
                # entries give the norm, which is at least that entry, to under
                # 6n 2^-_NORM_BITS relative, far below what the float loss resolves
                top = max(max(inv_r), -min(inv_r), max(inv_i), -min(inv_i)).bit_length()
                cut = max(0, top - _NORM_BITS)
                r, i = [*map(rshift, inv_r, repeat(cut))], [*map(rshift, inv_i, repeat(cut))]
                mods = [*map(math.isqrt, map(add, map(mul, r, r), map(mul, i, i)))]
                inverse_norm = max(sum(mods[j:j + S]) for j in range(0, n * S, S))
                moment_norm = max(sum(mags[j:j + n]) for j in range(n))
                loss = float(mp.log10(mp.mpf((moment_norm * inverse_norm, cut - 2 * F))))
            losses.append(loss)
            if loss > dps - 12:
                raise ArithmeticError(f"Hankel conditioning exceeds the precision budget at n = {n} "
                                      f"(about {loss:.0f} of {dps} digits)")
            w = (list(cr[n:n + n_max + 1]), list(ci[n:n + n_max + 1]))
            for k, r in enumerate(rows):
                m = (-w[0][k], -w[1][k])
                w[0][k] = w[1][k] = 0
                w = _axpy(w, m, r, F)
            (hr, hi), w[0][n], w[1][n] = (w[0][n], w[1][n]), 1 << F, 0  # h_n out, p_n's leading 1 in
            inv_h = ((hr << 2 * F) // (hr * hr + hi * hi), (-hi << 2 * F) // (hr * hr + hi * hi))
            rows.append(_axpy((repeat(0), repeat(0)), inv_h, w, F))
            # M_(n+1)^-1 = M_n^-1 + p_n p_n^T / h_n in one pass over rows 0..n: row i
            # gains rows[n][i] times p_n = w[:n + 1], at F bits
            xr, xi = ((v[:n + 1] + [0] * (S - n - 1)) * (n + 1) for v in w)
            mr, mi = ([*chain.from_iterable(map(repeat, v[:n + 1], repeat(S)))] for v in rows[n])
            inv_r = [*map(add, chain(inv_r, repeat(0)), map(rshift, map(sub, map(mul, xr, mr), map(mul, xi, mi)), repeat(F)))]
            inv_i = [*map(add, chain(inv_i, repeat(0)), map(rshift, map(add, map(mul, xi, mr), map(mul, xr, mi)), repeat(F)))]
            worst = max(worst, gap(list(zip(*w))[:n + 1], [fixed(v, F) for v in coeffs[n]], 1 << F),
                        gap([(hr, hi)], [fixed(h[n], F - e)], floor_h))
            if n >= 1:
                below = (lower[0] - w[0][n - 1], lower[1] - w[1][n - 1])
                worst, lower = max(worst, gap([below], [fixed(beta[n - 1], F)], floor_b)), (w[0][n - 1], w[1][n - 1])

        # worst is the largest squared relative gap
        digits = (math.log10(worst.denominator) - math.log10(worst.numerator)) / 2 if worst else math.inf
        return RecurrenceData(
            h=tuple(h),
            gamma2=tuple(gamma2),
            beta=tuple(beta),
            coefficients=tuple(coeffs),
            dps=dps,
            conditioning_loss=tuple(losses),
            cross_check_digits=digits,
        )


def string_residuals(data: RecurrenceData, u, N: int):
    """Residuals of both string identities, keyed by degree n.

    First identity: 3u (gamma2[n+1] + beta[n]^2 + gamma2[n]) - beta[n], for
    n < n_max.  Second: gamma2[n] (1 - 3u (beta[n] + beta[n-1])) - n/N, for
    1 <= n <= n_max.  Both vanish identically for exact moments.
    """
    from mpmath import mp, workdps

    n_max = len(data.h) - 1
    with workdps(data.dps + _QUAD_GUARD):
        u_m = as_mp(u)
        r1 = {}
        for n in range(n_max):
            lhs = 3 * u_m * (data.gamma2[n + 1] + data.beta[n] ** 2 + data.gamma2[n])
            r1[n] = BigFloat(abs(lhs - data.beta[n]), data.dps)
        r2 = {}
        for n in range(1, n_max + 1):
            lhs = data.gamma2[n] * (1 - 3 * u_m * (data.beta[n] + data.beta[n - 1]))
            r2[n] = BigFloat(abs(lhs - mp.mpf(n) / N), data.dps)
        return r1, r2


def expansion_prediction(u, N: int, gamma2_near):
    """(predicted gamma^2_N, predicted beta_N, branch tag) from ``hierarchy``'s slice and order 1 at a point.

    gamma^2 uses the slice at s = 1, beta the half-shifted slice s = 1 + 1/(2N).
    gamma2_near (measured data) selects the branch of the leading cubic; past
    the critical coupling that branch is complex and the choice matters.
    """
    from mpmath import mp

    u_m = as_mp(u)
    if u_m == 0:
        return mp.mpf(1), mp.mpf(0), "gaussian"
    w1 = u_m ** 2
    H = slice_root(w1, as_mp(gamma2_near))
    g2, _ = order_1_at(H, w1)
    pred_gamma = H + (u_m ** 2 * g2) / N ** 2
    s = 1 + mp.mpf(1) / (2 * N)
    ws = s * u_m ** 2
    Hs = slice_root(ws, H / s)
    _, b2s = order_1_at(Hs, ws)
    pred_beta = slice_b0(Hs, ws) / u_m + (u_m ** 3 * b2s) / N ** 2
    if abs(mp.im(H)) < mp.mpf(10) ** (-mp.dps // 2):
        branch = "real"
    elif mp.im(H) > 0:
        branch = "upper"
    else:
        branch = "lower"
    return pred_gamma, pred_beta, branch


class AsymptoticEntry(NamedTuple):
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


class AsymptoticReport(NamedTuple):
    entries: tuple
    gamma_ratios: tuple


def check_asymptotic_expansion(u, N_list, precision: int) -> AsymptoticReport:
    """Distance of gamma^2_N and beta_N from the two-term 1/N^2 prediction.

    epsilon(N) should shrink like N^-4, so doubling N divides it by about 16;
    the consecutive ratios of epsilon_gamma are reported alongside the per-N
    entries.  Report only: scaling conclusions are left to the caller.
    """
    from mpmath import mp, workdps

    entries = []
    with workdps(precision + _QUAD_GUARD):
        u_m = as_mp(u)
        for N in sorted(N_list):
            moments = compute_moments(precision, u_m, N, 2 * N + 1)
            rec = recurrence_from_moments(moments, N)
            entries.append(_asymptotic_entry(rec, u_m, N, precision)[0])
        g_ratios = []
        for prev, cur in zip(entries, entries[1:]):
            ep = as_mp(prev.epsilon_gamma)
            ratio = as_mp(cur.epsilon_gamma) / ep if ep > 0 else mp.inf
            g_ratios.append(BigFloat(ratio, precision))
        return AsymptoticReport(
            entries=tuple(entries),
            gamma_ratios=tuple(g_ratios),
        )


def toda_residual(u, N: int, h_step, precision: int, alpha=1.0) -> BigFloat:
    """|second time-difference of the free energy - gamma-tilde^2_N|.

    The free energy in the shifted variable splits into the smooth map part
    2/3 t^(3/2) - ln(4t)/4 plus (1/N^2) sum ln h_n; constants drop in the
    second difference, and each h_n enters through the ratio
    h_n(t+h) h_n(t-h) / h_n(t)^2, which sits near 1 so the principal log is
    branch-safe even for complex h_n.
    """
    from mpmath import mp, workdps

    wdps = max(precision, 8 * (N + 1)) + 30
    with workdps(wdps):
        u_m = as_mp(u)
        if u_m <= 0:
            raise ValueError("the time map needs u > 0")
        h = as_mp(h_step)
        if h <= 0:
            raise ValueError("h_step must be positive")
        t0 = 1 / (4 * (3 * u_m) ** (mp.mpf(4) / 3))
        if h >= t0:
            raise ValueError(
                f"h_step = {mp.nstr(h, 6)} must be below t0(u) = 1/(4 (3u)^(4/3)) = {mp.nstr(t0, 6)}"
            )
        recs = []
        for t in (t0 - h, t0, t0 + h):
            u_t = 1 / (3 * (4 * t) ** mp.mpf("0.75"))
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


class FiniteNReport(NamedTuple):
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


def build_report(u, N: int, precision: int, alpha=1.0, n_max: int | None = None,
                 toda_step=None) -> FiniteNReport:
    """One-stop validation: moments, recurrence data, residuals, expansion check,
    and the Toda residual at time step `toda_step` when one is given.

    Working precision follows max(80, 8 * n_max, precision); the reported
    values claim only `precision` digits.  A singular or budget-breaking
    Hankel block raises with the failing degree rather than reporting a
    shortened table.
    """
    from mpmath import workdps

    if n_max is None:
        n_max = 3 * N // 2 + 1
    if n_max < N + 1:
        raise ValueError("n_max must reach N + 1 so gamma^2_{N+1} exists")
    wdps = max(80, 8 * n_max, precision)
    with workdps(wdps + _QUAD_GUARD):
        u_m = as_mp(u)
        moments = compute_moments(wdps, u_m, N, 2 * n_max + 1, alpha=alpha)
        rec = recurrence_from_moments(moments, n_max)
        r1, r2 = string_residuals(rec, u_m, N)
        lo_n, hi_n = N // 2, min(3 * N // 2, n_max)
        window = [r1[n].value for n in r1 if lo_n <= n <= hi_n]
        window += [r2[n].value for n in r2 if lo_n <= n <= hi_n]
        worst = max(window)
        entry, branch = _asymptotic_entry(rec, u_m, N, precision)
        toda = None
        if toda_step is not None:
            toda = toda_residual(u_m, N, toda_step, precision=precision, alpha=alpha)
        return FiniteNReport(
            N=N,
            u=BigFloat(u_m, precision),
            alpha=complex(alpha),
            precision=precision,
            n_max=n_max,
            moments=tuple(BigFloat(m.value, precision) for m in moments),
            h=tuple(BigFloat(v, precision) for v in rec.h),
            gamma2=tuple(BigFloat(v, precision) for v in rec.gamma2),
            beta=tuple(BigFloat(v, precision) for v in rec.beta),
            string_r1={n: BigFloat(v.value, precision) for n, v in r1.items()},
            string_r2={n: BigFloat(v.value, precision) for n, v in r2.items()},
            max_string_residual=BigFloat(worst, precision),
            conditioning_loss=rec.conditioning_loss,
            cross_check_digits=rec.cross_check_digits,
            asymptotic=entry,
            branch=branch,
            toda=toda,
        )
