"""Finite-N moments, recurrence data, and the identity diagnostics built on them."""

import builtins
import contextlib
import math
import os
import select
import signal
import sys
import threading
import time
from fractions import Fraction

import pytest
from mpmath import libmp, mp, workdps, workprec

from cubicmaps import finite_n
from cubicmaps.cli import main
from cubicmaps.finite_n import (
    AsymptoticEntry,
    _path_moments,
    _path_rule,
    _path_scale,
    build_report,
    check_asymptotic_expansion,
    compute_moments,
    expansion_prediction,
    recurrence_from_moments,
    string_residuals,
    toda_residual,
)
from cubicmaps.hierarchy import order_1_at, slice_root
from cubicmaps.numbers import double_factorial
from cubicmaps.precision import BigFloat, agreement_digits, as_mp
from oracles import inner_product

U_TENTH = Fraction(1, 10)


@pytest.fixture(scope="module")
def moments_60():
    return compute_moments(60, U_TENTH, 10, 20)


@pytest.fixture(scope="module")
def rec_60(moments_60):
    return recurrence_from_moments(moments_60, 9)


@pytest.fixture(scope="module")
def gaussian_data():
    moms = compute_moments(50, 0, 8, 18)
    return moms, recurrence_from_moments(moms, 8)


@pytest.fixture(scope="module")
def report_20(criterion_run):
    # criterion-scale run: u = 0.1, N = 20, working precision 8 * 31 = 248,
    # the call the `string` criterion makes, so the session computes it once
    return criterion_run("string").call(build_report, U_TENTH, 20, precision=120)


def test_contour_validation():
    with pytest.raises(ValueError):
        compute_moments(8, U_TENTH, 10, 4)
    with pytest.raises(ValueError):
        compute_moments(40, Fraction(-1, 10), 8, 4)
    # a coupling past the float range would leave the tail bound without a radius
    with pytest.raises(ValueError):
        compute_moments(40, Fraction(10) ** 400, 8, 4)
    for alpha in (float("nan"), float("inf"), complex(1, float("nan"))):
        with pytest.raises(ValueError):
            compute_moments(40, U_TENTH, 8, 4, alpha=alpha)


def test_gaussian_moments(gaussian_data):
    moms, _ = gaussian_data
    with workdps(70):
        ref0 = mp.sqrt(2 * mp.pi / 8)
        for j, m in enumerate(moms):
            if j % 2 == 0:
                ref = ref0 * double_factorial(j - 1) / mp.mpf(8) ** (j // 2)
                assert abs(m.value - ref) / ref < mp.mpf("1e-55")
            else:
                assert abs(m.value) / ref0 < mp.mpf("1e-55")


def test_gaussian_recurrence(gaussian_data):
    _, rec = gaussian_data
    assert rec.gamma2[0] == 0
    with workdps(70):
        for n in range(1, 9):
            assert abs(rec.gamma2[n] - mp.mpf(n) / 8) < mp.mpf("1e-55")
        assert max(abs(b) for b in rec.beta) < mp.mpf("1e-55")


def _airy_moments(u, N, alpha, max_order, dps):
    """Closed-form contour moments, independent of the quadrature.

    With d = 1/(6u), lam = (3Nu)^(-1/3), s = N d lam / 2 and
    P = lam exp(-N d^2/3), the shift z = d - lam t turns the weight into an
    Airy integrand (DLMF 9.5), so c0 = P pi (Bi(s) + i(2 alpha - 1) Ai(s)) and
    c1 = d c0 - lam P pi (Bi'(s) + i(2 alpha - 1) Ai'(s)); integration by parts
    gives 3uN c_(j+2) = N c_(j+1) - j c_(j-1), so c2 = c1/(3u).
    """
    with workdps(dps):
        u = as_mp(u)
        d = 1 / (6 * u)
        lam = (3 * N * u) ** (-mp.mpf(1) / 3)
        s = N * d * lam / 2
        P = lam * mp.exp(-N * d * d / 3)
        k = 1j * (2 * mp.mpc(alpha) - 1)
        c0 = P * mp.pi * (mp.airybi(s) + k * mp.airyai(s))
        c1 = d * c0 - lam * P * mp.pi * (mp.airybi(s, 1) + k * mp.airyai(s, 1))
        c = [c0, c1, c1 / (3 * u)]
        for j in range(1, max_order - 1):
            c.append((N * c[j + 1] - j * c[j - 1]) / (3 * u * N))
        return c[: max_order + 1]


@pytest.mark.parametrize("alpha", [1, 0.3 + 0.7j])
def test_moments_match_airy_closed_form(moments_60, alpha):
    # alpha = 1 on the fixture table; complex alpha (both exit paths) through
    # order 41, where z^j amplifies the few bits a weight deep in the tail
    # would keep under one fixed-point scale shared by all nodes
    if alpha == 1:
        precision, N, moments = 60, 10, moments_60
    else:
        precision, N = 40, 6
        moments = compute_moments(precision, U_TENTH, N, 41, alpha=alpha)
    ref = _airy_moments(U_TENTH, N, alpha, len(moments) - 1, precision + 30)
    with workdps(precision + 30):
        for got, want in zip(moments, ref):
            # the claimed digits plus 5 of the guard digits; measured 74.6 and 54.4
            assert abs(got.value - want) <= abs(want) * mp.mpf(10) ** -(precision + 5)


def _rule(precision, u, N, order):
    with workdps(precision + 15):
        _, b, c = _path_scale(as_mp(u), N)
        return _path_rule(precision, float(b), float(c), order)


@pytest.mark.parametrize("u, N, order", [(U_TENTH, 4, 15), (Fraction(5), 2, 9)],
                         ids=["gaussian-scale", "cubic-scale"])
def test_path_sums_match_direct_exponential(u, N, order):
    # the fixed-point node weights and order sums against exp(-N V(z)) taken
    # outright at every node of the same rule on the chord turn zeta = t (1 +
    # (omega - 1) sigma), 20 digits above the working precision; at u = 5,
    # N = 2 the path is scaled by (u N)^(-1/3), not N^(-1/2); measured 45.4
    # and 45.8 digits, the working precision
    precision = 30
    with workdps(precision + 15):
        s, b, c = _path_scale(as_mp(u), N)
        tau, n, k_lo, k_hi = _path_rule(precision, float(b), float(c), order)
        got = _path_moments(s, b, c, order, tau, n, k_lo, k_hi)
    with workdps(precision + 35):
        u = as_mp(u)
        chord = mp.expjpi(mp.mpf(1) / 5) - 1
        want = [mp.mpc(0)] * (order + 1)
        for k in range(k_lo, k_hi + 1):
            t = mp.mpf(k) / n
            th = mp.tanh(t / tau)
            sigma, dsigma = (1 + th) / 2, (1 - th * th) / (2 * tau)
            z = s * t * (1 + chord * sigma)
            dz = s * (1 + chord * (sigma + t * dsigma))
            term = mp.exp(N * z * z * (u * z - mp.mpf(1) / 2)) * dz / n
            for j in range(order + 1):
                want[j] += term
                term *= z
        for a, w in zip(got, want):
            assert abs(a - w) <= abs(w) * mp.mpf(10) ** -(precision + 5)


def test_turn_speed_bound():
    # the tail bounds integrate in r = |zeta| and pay |zeta'|/(d|zeta|/dt) <=
    # _DZETA_MAX for it; sampled every tau/200 out to 30 tau on each side, for
    # every turning width the rule may take, |zeta| also grows outward
    worst = 0.0
    for tau in finite_n._TAUS:
        for k in range(-6000, 6000):
            t = (k + 0.5) * tau / 200
            rho, dsigma = finite_n._turn(t, tau)
            zeta, dzeta = t * rho, rho + finite_n._CHORD * t * dsigma
            outward = (zeta.conjugate() * dzeta).real / abs(zeta) * (1 if t > 0 else -1)
            assert outward > 0
            worst = max(worst, abs(dzeta) / outward)
    # the stated bound 1.1384/cos(pi/10) = 1.197 against the sampled 1.0091
    assert worst <= finite_n._DZETA_MAX
    assert 1.1384 / math.cos(math.pi / 10) <= finite_n._DZETA_MAX


VALIDATE_RULES = [(8, 8, -120, 192), (8, 8, -128, 204)]  # `validate --N 4 --precision 80` at u 2/25, 1/16


def test_turning_factors_within_two_ulps():
    # the geometric E_k against e^(-2k/(n tau)) at every node of both
    # validate rules, at the bits _path_moments evaluates its nodes with
    with workdps(95):
        prec = mp.prec + finite_n._FIX_GUARD + finite_n._NODE_GUARD
    for tau, n, k_lo, k_hi in VALIDATE_RULES:
        k_max = max(-k_lo, k_hi)
        factors = finite_n._turning_factors(n, tau, k_max, prec)
        assert len(factors) == k_max + 1 and factors[0] == 1 << prec
        with workprec(prec + 60):
            for k, e in enumerate(factors):
                assert abs(e - mp.exp(mp.mpf(-2 * k) / (n * tau)) * 2 ** prec) < 2


def test_one_exponential_and_one_cosine_sine_per_node(monkeypatch):
    # the turn itself costs no transcendental: each node pays the exponential
    # and the cosine-sine pair of -N V, and the setup one exponential (the
    # turning factors' ratio)
    calls = {"exp": 0, "cos_sin": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # a forked chunk's calls would not reach this process's counter
    monkeypatch.setattr(finite_n, "_process_count", lambda nodes: 1)
    # finite_n imports its mpmath.libmp names in the function that uses them, at each call
    monkeypatch.setattr(libmp, "mpf_exp", counted("exp", libmp.mpf_exp))
    monkeypatch.setattr(libmp, "mpf_cos_sin", counted("cos_sin", libmp.mpf_cos_sin))
    for u, (tau, n, k_lo, k_hi) in zip((Fraction(2, 25), Fraction(1, 16)), VALIDATE_RULES):
        calls.update(exp=0, cos_sin=0)
        with workdps(95):
            s, b, c = _path_scale(as_mp(u), 4)
            _path_moments(s, b, c, 15, tau, n, k_lo, k_hi)
        nodes = k_hi - k_lo + 1
        assert calls == {"exp": nodes + 1, "cos_sin": nodes}


def test_float_commands_import_per_call_not_per_node(monkeypatch, capsys):
    # each float function imports its mpmath names when called; one that ran an
    # import per node, sample or coefficient would show here as hundreds of
    # imports.  Measured after a warm-up, every node chunk in this process: 42
    # for validate (16 from the bordering pass's two sums a degree, 8 from the
    # node chunks), 14 for equilibrium (3 from its worst samples)
    tau, n, k_lo, k_hi = VALIDATE_RULES[0]
    nodes = k_hi - k_lo + 1
    bound = 64
    assert nodes == 313 and bound < nodes // 4
    monkeypatch.setattr(finite_n, "_process_count", lambda nodes: 1)
    real = builtins.__import__
    for argv in (["validate", "--N", "4", "--u", "2/25", "--precision", "80"], ["equilibrium", "--u", "1/20"]):
        assert main(argv) == 0  # warms every cache the command keeps
        imports = []

        def counting(*args, **kwargs):
            imports.append(args[0])
            return real(*args, **kwargs)

        builtins.__import__ = counting
        try:
            code = main(argv)
        finally:
            builtins.__import__ = real
        capsys.readouterr()
        assert code == 0 and set(imports) <= {"mpmath", "mpmath.libmp"} and len(imports) <= bound, (argv, imports)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the node chunks are shared with forked processes")


@contextlib.contextmanager
def _deadline(seconds):
    # a hang in the fork-and-reap path fails the test instead of stalling the run
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _validate_moments(u, N):
    # the moments `validate --N N --precision 80` takes: orders through 2 n_max + 1
    # at working precision max(80, 8 n_max)
    n_max = 3 * N // 2 + 1
    precision = max(80, 8 * n_max)
    with workdps(precision + 15):
        s, b, c = _path_scale(as_mp(u), N)
        rule = _path_rule(precision, float(b), float(c), 2 * n_max + 1)
        return lambda: _path_moments(s, b, c, 2 * n_max + 1, *rule)


@needs_fork
@pytest.mark.parametrize("u, N", [(Fraction(2, 25), 4), (Fraction(1, 16), 4), (Fraction(2, 25), 8)],
                         ids=["2/25-N4", "1/16-N4", "2/25-N8"])
def test_node_chunks_merge_bit_identically(u, N, monkeypatch):
    # every chunk sums its nodes exactly at its own least exponent, so any
    # split (8 chunks a process) among any processes, merged at the least
    # exponent of all, gives the same moments
    moments = _validate_moments(u, N)
    runs = {}
    for processes in (1, 2, 3):
        monkeypatch.setattr(finite_n, "_process_count", lambda nodes, p=processes: p)
        with _deadline(60):
            runs[processes] = moments()
        _no_child_left()
    assert runs[2] == runs[1] and runs[3] == runs[1]
    assert all(isinstance(v, mp.mpc) for v in runs[1])


def test_chunk_ranges_partition_the_nodes():
    for k_lo, k_hi in ((-120, 192), (-128, 204), (0, 0), (-5, 4), (3, 1000)):
        nodes = list(range(k_lo, k_hi + 1))
        for chunks in range(1, min(len(nodes), 17) + 1):
            ranges = finite_n._chunk_ranges(k_lo, k_hi, chunks)
            assert len(ranges) == chunks
            assert [k for lo, hi in ranges for k in range(lo, hi + 1)] == nodes
            sizes = [hi - lo + 1 for lo, hi in ranges]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def test_process_count_forks_only_where_it_is_sound_and_pays(monkeypatch):
    # one process per usable CPU, each with at least _PROCESS_NODES nodes; one
    # process with a single CPU or a second Python thread running
    least = finite_n._PROCESS_NODES
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    if hasattr(os, "fork"):
        assert [finite_n._process_count(n) for n in (1, 2 * least - 1, 2 * least, 3 * least, 100 * least)] == [1, 1, 2, 3, 4]
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert finite_n._process_count(100 * least) == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert finite_n._process_count(100 * least) == 1


@needs_fork
def test_shared_chunks_come_back_in_order_whoever_takes_them():
    # the child lags on every chunk, so the parent takes more of them; the
    # results are still in chunk order, each taken exactly once
    parent = os.getpid()

    def work(i):
        if os.getpid() != parent:
            time.sleep(0.02)
        return [i, os.getpid() == parent]

    with _deadline(60):
        out = finite_n._shared_map(work, [(i,) for i in range(24)], 2)
    _no_child_left()
    assert [i for i, _ in out] == list(range(24))
    assert sum(by_parent for _, by_parent in out) >= 12


@needs_fork
def test_failing_child_raises_and_is_reaped(monkeypatch):
    parent = os.getpid()
    node_sums = finite_n._node_sums
    first = [True]

    def failing_in_child(*args):
        if os.getpid() != parent:
            raise ValueError("chunk failed")
        if first:  # the child takes a chunk meanwhile
            first.pop()
            time.sleep(0.5)
        return node_sums(*args)

    monkeypatch.setattr(finite_n, "_process_count", lambda nodes: 2)
    monkeypatch.setattr(finite_n, "_node_sums", failing_in_child)
    with _deadline(60), pytest.raises(RuntimeError, match="exited with wait status 256"):
        compute_moments(80, Fraction(2, 25), 4, 15)
    _no_child_left()


@needs_fork
def test_parent_failure_reaps_a_child_blocked_on_its_pipe():
    # the child's payload overfills its pipe; the parent fails before it reads
    # it, and closing the read end lets the child leave instead of hanging.
    # The child's chunk waits on a gate that only the parent's chunk opens, so
    # the child cannot take both chunks and the parent always takes one; the
    # wait is bounded, so a parent that never takes one fails, not hangs.
    parent = os.getpid()
    gate_r, gate_w = os.pipe()

    def work(i):
        if os.getpid() == parent:
            os.write(gate_w, b"x")
            raise ArithmeticError("parent chunk failed")
        select.select([gate_r], [], [], 30)
        return 1 << (1 << 23)

    try:
        with _deadline(60), pytest.raises(ArithmeticError, match="parent chunk failed"):
            finite_n._shared_map(work, [(0,), (1,)], 2)
    finally:
        os.close(gate_r)
        os.close(gate_w)
    _no_child_left()


@needs_fork
def test_failed_fork_computes_the_chunks_in_process(monkeypatch):
    moments = _validate_moments(Fraction(2, 25), 4)
    monkeypatch.setattr(finite_n, "_process_count", lambda nodes: 1)
    want = moments()

    def no_fork():
        raise OSError("no process left")

    monkeypatch.setattr(finite_n, "_process_count", lambda nodes: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert moments() == want
    _no_child_left()


needs_pinning = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="each process sharing the node chunks is pinned to a CPU of its own")


@pytest.fixture
def two_cpus():
    # the test process on the two lowest CPUs of its mask, so that 2 processes
    # fill it one to a CPU; its own mask comes back afterwards
    mask = os.sched_getaffinity(0)
    pair = set(sorted(mask)[:2])
    os.sched_setaffinity(0, pair)
    try:
        yield pair
    finally:
        os.sched_setaffinity(0, mask)


@needs_pinning
@pytest.mark.parametrize("failing", [None, "child", "parent", "fork"], ids=["ok", "child-fails", "parent-fails", "fork-fails"])
def test_each_process_runs_on_its_own_cpu_and_the_mask_comes_back(failing, two_cpus, monkeypatch):
    # each process's chunk waits until the other process has taken one, so
    # each takes exactly one; the parent runs on the mask's first CPU and the
    # child on its second, and the parent's mask comes back on every exit path
    parent = os.getpid()
    first, second = sorted(two_cpus)
    gates = {True: os.pipe(), False: os.pipe()}  # keyed by "in the parent"

    def work(i):
        mine = os.getpid() == parent
        os.write(gates[mine][1], b"x")
        if failing != "fork":
            select.select([gates[not mine][0]], [], [], 30)
        if failing == ("parent" if mine else "child"):
            raise ArithmeticError("chunk failed")
        return [mine, sorted(os.sched_getaffinity(0))]

    def no_fork():
        raise OSError("no process left")

    if failing == "fork":
        monkeypatch.setattr(os, "fork", no_fork)
    raises = {"child": pytest.raises(RuntimeError, match="wait status 256"),
              "parent": pytest.raises(ArithmeticError, match="chunk failed")}
    try:
        with _deadline(60), raises.get(failing, contextlib.nullcontext()):
            out = finite_n._shared_map(work, [(0,), (1,)], 2)
    finally:
        for r, w in gates.values():
            os.close(r)
            os.close(w)
    _no_child_left()
    assert os.sched_getaffinity(0) == two_cpus
    if failing is None:
        assert dict(out) == {True: [first], False: [second]}
    elif failing == "fork":
        assert out == [[True, [first]], [True, [first]]]


@needs_pinning
def test_more_processes_than_cpus_run_unpinned(two_cpus):
    # 3 processes on 2 CPUs: no CPU is left idle whichever process it holds, so none is pinned
    with _deadline(60):
        out = finite_n._shared_map(lambda: sorted(os.sched_getaffinity(0)), [()] * 6, 3)
    _no_child_left()
    assert out == [sorted(two_cpus)] * 6 and os.sched_getaffinity(0) == two_cpus


@needs_pinning
def test_refused_affinity_leaves_the_moments_bit_identical(two_cpus, monkeypatch):
    # a cpuset that refuses every CPU: each process runs unpinned, with the same bits
    moments = _validate_moments(Fraction(2, 25), 4)
    monkeypatch.setattr(finite_n, "_process_count", lambda nodes: 1)
    want = moments()
    calls = []

    def refuse(pid, cpus):
        calls.append(cpus)
        raise OSError("Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(finite_n, "_process_count", lambda nodes: 2)
    with _deadline(60):
        assert moments() == want
    _no_child_left()
    # the parent tried its CPU, and its mask on the way out
    assert calls == [{min(two_cpus)}, two_cpus] and os.sched_getaffinity(0) == two_cpus


@pytest.mark.parametrize("u, rule, nodes", [
    (Fraction(2, 25), (8, 8, -120, 192), 313),
    (Fraction(1, 16), (8, 8, -128, 204), 333),
], ids=["2/25", "1/16"])
def test_validate_quadrature_decisions(u, rule, nodes):
    # the path of `validate --N 4 --precision 80` (orders through 15): turning
    # width tau, step h = 1/n and nodes t = k h for k_lo <= k <= k_hi; a
    # different node set would move every noise-level field of its output
    tau, n, k_lo, k_hi = _rule(80, u, 4, 15)
    assert (tau, n, k_lo, k_hi) == rule
    assert k_hi - k_lo + 1 == nodes


def test_cubic_dominated_moments():
    # u^2 > N: the cubic term sets the path's scale, (u N)^(-1/3); measured 45.8
    with workdps(45):
        s, b, c = _path_scale(mp.mpf(5), 2)
        assert c == 1 and abs(s ** 3 * 10 - 1) < mp.mpf(10) ** -40
    ref = _airy_moments(Fraction(5), 2, 1, 9, 60)
    moments = compute_moments(30, 5, 2, 9)
    with workdps(60):
        for got, want in zip(moments, ref):
            assert abs(got.value - want) <= abs(want) * mp.mpf(10) ** -35


def test_radius_descends_at_large_N():
    # at N = 10^6 the path is scaled by N^(-1/2), so its node count stays
    # that of N of order 1: 425 nodes through order 3 and 471 through 31
    # (the two-ray rule needed 41,312 panels of 192 nodes at a fixed radius)
    N, precision = 10 ** 6, 80
    for order in (3, 31):
        _, _, k_lo, k_hi = _rule(precision, U_TENTH, N, order)
        assert k_hi - k_lo + 1 < 500
    # z^j at the weight's scale shrinks by about 3 digits per order; the Airy
    # recursion loses as much, hence its 300 digits
    ref = _airy_moments(U_TENTH, N, 1, 31, 300)
    for order in (3, 31):
        moments = compute_moments(precision, U_TENTH, N, order)
        with workdps(300):
            for got, want in zip(moments, ref):
                # measured 95.4 (orders through 3) and 94.5 (through 31)
                assert abs(got.value - want) <= abs(want) * mp.mpf(10) ** -(precision + 5)


def test_precision_doubling(moments_60):
    m120 = compute_moments(120, U_TENTH, 10, 20)
    with workdps(140):
        agree = min(agreement_digits(a.value, b.value) for a, b in zip(moments_60, m120))
    assert agree >= 55  # measured 74.6
    r60 = recurrence_from_moments(moments_60, 9)
    r120 = recurrence_from_moments(m120, 9)
    with workdps(140):
        assert agreement_digits(r60.gamma2[8], r120.gamma2[8]) >= 45


def test_alpha_conjugation(moments_60):
    # the mirror contour carries the conjugate measure, exactly
    mirror = compute_moments(60, U_TENTH, 10, 20, alpha=0.0)
    with workdps(75):
        dev = max(abs(mp.conj(a.value) - b.value) for a, b in zip(moments_60, mirror))
        assert dev < mp.mpf("1e-60")


def test_alpha_independence_subcritical():
    # below the critical coupling both contours see the same one-cut data up
    # to the complex-saddle term exp(-N/(54 u^2)); measured agreement 33.7 digits
    u = Fraction(1, 20)
    plain = compute_moments(80, u, 16, 19)
    mixed = compute_moments(80, u, 16, 19, alpha=0.3 + 0.2j)
    ra = recurrence_from_moments(plain, 9)
    rb = recurrence_from_moments(mixed, 9)
    with workdps(100):
        assert agreement_digits(ra.gamma2[8], rb.gamma2[8]) >= 30


def test_alpha_mixing_past_critical():
    # past the critical coupling the two exit paths carry conjugate branches, so a
    # generic alpha mixes them at the amplified saddle scale (~1e-4 on the
    # moments at these parameters) and pointwise agreement collapses; this
    # documents the measured deviation rather than asserting independence.
    plain = compute_moments(80, U_TENTH, 16, 19)
    mixed = compute_moments(80, U_TENTH, 16, 19, alpha=0.3 + 0.2j)
    ra = recurrence_from_moments(plain, 9)
    rb = recurrence_from_moments(mixed, 9)
    with workdps(100):
        gap = abs(ra.gamma2[8] - rb.gamma2[8])
        assert mp.mpf("1e-8") < gap < 1


def test_string_residuals_criterion_scale(report_20):
    # acceptance-level bound is 1e-90 on [10, 30]; measured worst 2.5e-245
    assert as_mp(report_20.max_string_residual) < mp.mpf("1e-200")
    assert set(report_20.string_r1) == set(range(31))
    assert set(report_20.string_r2) == set(range(1, 32))
    assert report_20.cross_check_digits > 230
    assert max(report_20.conditioning_loss) < 35


def test_report_expansion_entry(report_20):
    entry = report_20.asymptotic
    assert report_20.branch == "upper"
    with workdps(140):
        eps = as_mp(entry.epsilon_gamma)
        assert mp.mpf("1e-7") < eps < mp.mpf("1e-5")  # N^-4 scale at N = 20
        assert mp.im(as_mp(entry.gamma2)) > 0


def test_asymptotic_scaling(criterion_run):
    # the `remainder` criterion's own call
    rep = criterion_run("remainder").call(check_asymptotic_expansion, U_TENTH, [16, 32, 64], precision=80)
    assert len(rep.gamma_ratios) == 2
    with workdps(100):
        for g_ratio in rep.gamma_ratios:  # measured 0.0678, 0.0626
            assert 2 ** mp.mpf("-4.25") < as_mp(g_ratio) < 2 ** mp.mpf("-3.75")
        eps_beta = [as_mp(e.epsilon_beta) for e in rep.entries]
        for prev, cur in zip(eps_beta, eps_beta[1:]):  # measured 0.0872, 0.0672
            assert mp.mpf(1) / 32 < cur / prev < mp.mpf(1) / 8
        # at N = 32 the 1/N^2 term explains the gap to the leading slice
        e32 = rep.entries[1]
        u = as_mp(U_TENTH)
        w = u * u
        H = slice_root(w, as_mp(e32.gamma2))
        g2, _ = order_1_at(H, w)
        lead_gap = abs(as_mp(e32.gamma2) - H)
        g2_term = abs(u * u * g2) / 32 ** 2
        assert abs(lead_gap - g2_term) / g2_term < 0.25  # measured 5e-4


def test_asymptotic_gaussian():
    rep = check_asymptotic_expansion(0, [8], precision=50)
    assert expansion_prediction(0, 8, 1)[2] == "gaussian"
    with workdps(70):
        assert as_mp(rep.entries[0].epsilon_gamma) < mp.mpf("1e-45")
        assert as_mp(rep.entries[0].epsilon_beta) < mp.mpf("1e-45")


def test_orthogonality_recomputation(rec_60):
    # contract the monic coefficients against the Airy closed-form moments,
    # which share no quadrature code; only genuine moment error survives
    exact = [BigFloat(c, 75) for c in _airy_moments(U_TENTH, 10, 1, 14, 90)]
    with workdps(90):
        for n in range(1, 7):
            for m in range(n):
                ip = inner_product(exact, rec_60.coefficients[n], rec_60.coefficients[m])
                assert abs(ip.value) < mp.mpf("1e-60")  # measured 1.8e-77


def test_condition_numbers_match_mpmath_inverse(moments_60, rec_60, gaussian_data):
    # the elimination's inverses sum_(k<n) p_k p_k^T / h_k must give mpmath's
    # inverse condition number bit for bit for n >= 2; mp.inverse shares no
    # code with them.  The second table is criterion 10's N = 16 (up to 10.1
    # digits lost), which pins the route past n = 9.  The 1x1 block has
    # condition number 1 exactly, so its loss is exactly 0.0, where mpmath's
    # product leaves a rounding residue of either sign (about -1.2e-76 on the
    # first table); that residue must sit below 10^-(dps - 5).  The last three
    # tables press the fixed-point elimination hardest: at u = 0 the odd
    # moments sit at the noise floor, at u = 1e-100 (`validate --N 2 --u 1e-100
    # --precision 30` on 30-digit moments) 100 digits below the even ones, and
    # at N = 64 the blocks lose 30.4 digits by n = 40 (mp.inverse there takes
    # 2 s, so four degrees).  Their cross-checks must stay within a digit of
    # the floating-point elimination's 63.8, 46.0 and 77.7 digits
    moments_16 = compute_moments(80, U_TENTH, 16, 33)
    tiny = compute_moments(30, Fraction(1, 10 ** 100), 2, 9)
    far = compute_moments(80, Fraction(1, 1000), 64, 81)
    tables = [
        (moments_60, rec_60, range(1, 10), None),
        (moments_16, recurrence_from_moments(moments_16, 16), range(1, 17), None),
        (*gaussian_data, range(1, 9), 62.7),
        (tiny, recurrence_from_moments(tiny, 4), range(1, 5), 45.0),
        (far, recurrence_from_moments(far, 40), (1, 2, 20, 40), 76.7),
    ]
    for moments, rec, degrees, floor in tables:
        assert rec.conditioning_loss[1] == 0.0
        assert floor is None or rec.cross_check_digits > floor
        with workdps(rec.dps + 15):
            c = [m.value for m in moments]
            for n in degrees:
                M = mp.matrix([[c[i + j] for j in range(n)] for i in range(n)])
                loss = float(mp.log10(mp.mnorm(M, 1) * mp.mnorm(mp.inverse(M), 1)))
                if n == 1:
                    assert abs(loss) < 10.0 ** -(rec.dps - 5)
                else:
                    assert rec.conditioning_loss[n] == loss


def test_conditioning_budget_raises_at_the_failing_degree():
    # 15-digit moments leave dps - 12 = 3 digits for conditioning; the
    # Gaussian blocks at N = 8 lose 2.56 digits at n = 5 and past 3 at n = 6
    moments = compute_moments(15, 0, 8, 17)
    assert max(recurrence_from_moments(moments, 5).conditioning_loss) < 3
    with pytest.raises(ArithmeticError, match=r"precision budget at n = 6 \(about 3 of 15 digits\)"):
        recurrence_from_moments(moments, 8)


def test_cross_check_sees_a_perturbed_bordering_pass(moments_60, rec_60, monkeypatch):
    # only the bordering pass calls _moment_against; scaling it by 1 + 1e-40
    # scales that pass's h_n (its beta and gamma^2 are ratios), which the
    # elimination's pivots must expose: measured 40.0 digits, 72.8 clean.
    # A route that re-read h_n through the same helper would not see it
    exact = finite_n._moment_against
    monkeypatch.setattr(finite_n, "_moment_against", lambda *args: exact(*args) * (1 + mp.mpf(10) ** -40))
    assert rec_60.cross_check_digits > 70
    assert recurrence_from_moments(moments_60, 9).cross_check_digits < 45


def test_determinant_product(moments_60, rec_60):
    with workdps(75):
        c = [m.value for m in moments_60]
        for n in range(1, 8):
            M = mp.matrix(n + 1, n + 1)
            for i in range(n + 1):
                for j in range(n + 1):
                    M[i, j] = c[i + j]
            prod = mp.mpc(1)
            for m in range(n + 1):
                prod *= rec_60.h[m]
            assert abs(mp.det(M) - prod) / abs(prod) < mp.mpf("1e-60")  # measured 4.9e-74


def test_three_term_dual_route(moments_60, rec_60):
    # rebuild three consecutive monic vectors by direct Hankel solves and read
    # gamma^2 off the recurrence; independent of the bordering pass
    with workdps(75):
        c = [m.value for m in moments_60]

        def solve_monic(n):
            M = mp.matrix(n, n)
            rhs = mp.matrix(n, 1)
            for k in range(n):
                for j in range(n):
                    M[k, j] = c[j + k]
                rhs[k] = -c[n + k]
            return list(mp.lu_solve(M, rhs)) + [mp.mpc(1)]

        for n in range(2, 9):
            below, here, above = solve_monic(n - 1), solve_monic(n), solve_monic(n + 1)
            vec = [mp.mpc(0)] * (n + 2)
            for i, a in enumerate(here):
                vec[i + 1] += a
                vec[i] -= rec_60.beta[n] * a
            for i, a in enumerate(above):
                vec[i] -= a
            g_est = vec[n - 1]
            assert abs(g_est - rec_60.gamma2[n]) / abs(rec_60.gamma2[n]) < mp.mpf("1e-60")
            worst = max(
                abs(vec[i] - g_est * (below[i] if i < len(below) else 0))
                for i in range(n + 2)
            )
            assert worst < mp.mpf("1e-60")  # measured 1.1e-72


def _w_crit():
    return 1 / mp.sqrt(34992)  # w = u_c^2: the leading slice's double root at H = sqrt(3)


@pytest.mark.parametrize("w", [
    lambda: mp.mpf("1e-200"),
    lambda: mp.mpf("1e-60"),
    lambda: mp.mpf(1) / 2000,
    lambda: mp.mpf(1) / 256,
    lambda: mp.mpf(1) / 100,
    lambda: _w_crit() * (1 - mp.mpf("1e-6")),
    lambda: _w_crit() * (1 + mp.mpf("1e-6")),
    lambda: (mp.mpf(2) / 25) ** 2,
    lambda: (mp.mpf(1) / 5) ** 2,
    lambda: (1 + mp.mpf(1) / 8) * (mp.mpf(1) / 16) ** 2,
    lambda: (1 + mp.mpf(1) / 16) * (mp.mpf(1) / 10) ** 2,
    lambda: mp.mpf("1e20"),
    lambda: mp.mpf("1e-400"),
    lambda: mp.mpf("1e400"),
], ids=["1e-200", "1e-60", "1/2000", "1/256", "1/100", "wc-", "wc+", "(2/25)^2", "(1/5)^2", "9/8*(1/16)^2",
        "17/16*(1/10)^2", "1e20", "1e-400", "1e400"])
def test_slice_roots_match_polyroots(w):
    # slice_root against mp.polyroots at 40 more digits, on both sides of w_c and
    # on half-shifted slices s u^2, s = 1 + 1/(2N); at w = 1e-60 and 1e-200 the
    # roots near -1 and 1 sit about 60 and 200 orders below the third, and at
    # w = 1e20 (u = 1e10) the binary64 climb from -1 runs longest.  At 1e-400
    # and 1e400, 72 w is 0 and inf in binary64, so the working-precision climb
    # starts from -1 itself and from -(72 w)^(-1/3).  Roots of a cubic with
    # three real roots, and the real root past w_c, carry Im exactly 0: a printed
    # prediction would otherwise come out as re/im
    dps = 40
    with workdps(dps):
        w = w()
    with workdps(dps + 40):
        # 200 bits more: with 80, Durand-Kerner does not settle at w = 1e-60.  Past
        # 72 w = 1 the roots scale as k = (72 w)^(-1/3), so they are read off
        # X^3 - k^2 X^2 + 1 in H = k X: on the cubic itself it does not settle at w = 1e400
        k = (72 * w) ** (-mp.mpf(1) / 3) if 72 * w > 1 else 1
        roots = [k * h for h in mp.polyroots([72 * w * k**3, -k * k, 0, 1], extraprec=200)]
    r = min(roots, key=lambda h: mp.re(h))  # the negative root; the pair has Re = (1/(72 w) - r)/2 > 0
    pair = [h for h in roots if h is not r]
    with workdps(dps):
        for h in pair:  # measured at least 41.1 digits
            got = slice_root(w, h)
            assert agreement_digits(got, h) >= dps
            assert isinstance(got, mp.mpf) == (mp.im(h) == 0)
            assert isinstance(got, mp.mpf) or mp.im(got) != 0
        got = slice_root(w, r)
        assert mp.re(got) > 0
        assert max(agreement_digits(got, h) for h in pair) >= dps
        if all(mp.im(h) == 0 for h in roots):
            assert agreement_digits(slice_root(w, 1), min(pair)) >= dps
        else:
            assert w > _w_crit()
    assert sum(1 for h in roots if mp.im(h) == 0) in (1, 3)


@pytest.mark.parametrize("dps", [40, 60])
def test_seeded_slice_climb_takes_at_most_five_working_precision_steps(dps):
    # the binary64 root, nudged left by a relative 2^-40, leaves the climb at
    # the working precision about 40 bits to double from: at w = (1/30)^2, where
    # equilibrium reads u = 1/30 at dps 60, it takes 4 and 5 Newton steps at
    # dps 40 and 60 before the two final ones (7 and 8 from -1)
    steps = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "newton" and not isinstance(frame.f_locals["h"], float):
            steps.append(frame.f_locals["h"])

    with workdps(dps):
        w = (mp.mpf(1) / 30) ** 2
        sys.setprofile(profile)
        try:
            H = slice_root(w, 1)
        finally:
            sys.setprofile(None)
        assert abs(72 * w * H**3 - H**2 + 1) < mp.mpf(10) ** -(dps - 2)
    seed = steps[0]
    assert 2 < len(steps) <= 5 + 2
    assert -1 < seed < -0.9 and 72 * w * seed**3 - seed**2 + 1 < 0  # left of the negative root


@pytest.mark.parametrize("w", ["1e400", "1e4000"])
def test_slice_climb_past_binary64_starts_next_to_its_root(w):
    # where 72 w overflows binary64 the climb starts from -(72 w)^(-1/3),
    # nudged left: at most 8 working-precision Newton steps, the two final
    # ones included, where the climb from -1 took 769 at w = 1e400
    steps = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "newton" and not isinstance(frame.f_locals["h"], float):
            steps.append(frame.f_locals["h"])

    with workdps(40):
        w = mp.mpf(w)
        sys.setprofile(profile)
        try:
            H = slice_root(w, 1)
        finally:
            sys.setprofile(None)
        k = (72 * w) ** (-mp.mpf(1) / 3)
        assert isinstance(H, mp.mpc) and abs((H / k) ** 3 + 1) < mp.mpf(10) ** -36  # H^3 near -1/(72 w)
    seed = steps[0]
    assert 2 < len(steps) <= 8
    assert seed < -k and 72 * w * seed**3 - seed**2 + 1 < 0  # left of the negative root, near -k


def test_shifted_time_identities():
    # the two facts about the shifted variable that toda_residual relies on
    u = Fraction(1, 50)
    rec = recurrence_from_moments(compute_moments(80, u, 8, 19), 9)
    with workdps(100):
        um = as_mp(u)
        # far from the critical point gamma-tilde^2 sits near 1/(2 sqrt t)
        t = 1 / (4 * (3 * um) ** (mp.mpf(4) / 3))
        gamma_tilde2 = rec.gamma2[8] / (2 * mp.sqrt(t))
        assert abs(gamma_tilde2 * 2 * mp.sqrt(t) - 1) < 0.05  # measured 0.0149
        # exact scalar identity behind the smooth part of the free energy
        ident = 1 / (108 * um ** 2) + mp.log(3 * um) / 3
        assert abs(ident - (2 * t ** mp.mpf("1.5") / 3 - mp.log(4 * t) / 4)) < mp.mpf("1e-55")


def test_toda_residual_criterion(criterion_run):
    u = Fraction(2, 25)
    run = criterion_run("toda")  # the criterion makes both calls
    first = run.call(toda_residual, u, 12, Fraction(1, 1000), precision=80)
    half = run.call(toda_residual, u, 12, Fraction(1, 2000), precision=80)
    with workdps(40):
        r1 = as_mp(first)
        r2 = as_mp(half)
        assert r1 < mp.mpf("1e-6")  # measured 3.26e-7; acceptance asks 1e-4
        assert mp.mpf("3.9") < r1 / r2 < mp.mpf("4.1")  # measured 3.9999874
    with pytest.raises(ValueError):
        toda_residual(0, 12, Fraction(1, 1000), 80)
    with pytest.raises(ValueError):
        toda_residual(u, 12, 0, 80)


def test_recurrence_rejections():
    flat = [BigFloat(mp.mpf(1), 40) for _ in range(8)]
    with pytest.raises(ArithmeticError, match="n = 1"):
        recurrence_from_moments(flat, 3)
    good = compute_moments(40, 0, 4, 9)
    with pytest.raises(ValueError):
        recurrence_from_moments(good, 0)
    with pytest.raises(ValueError):
        recurrence_from_moments(good[:5], 4)


def test_build_report_shape():
    rep = build_report(Fraction(1, 20), 6, precision=60, n_max=10)
    assert rep.n_max == 10
    assert len(rep.moments) == 22
    assert len(rep.h) == 11 and len(rep.gamma2) == 11 and len(rep.beta) == 11
    assert rep.gamma2[0].value == 0
    assert rep.branch == "real"
    assert rep.toda is None
    with workdps(80):
        assert as_mp(rep.max_string_residual) < mp.mpf("1e-60")
        assert isinstance(rep.asymptotic, AsymptoticEntry)
        assert as_mp(rep.asymptotic.epsilon_gamma) < mp.mpf("1e-4")
    with pytest.raises(ValueError):
        build_report(Fraction(1, 20), 6, precision=60, n_max=5)


def test_string_residual_indexing(rec_60):
    r1, r2 = string_residuals(rec_60, U_TENTH, 10)
    assert set(r1) == set(range(9))
    assert set(r2) == set(range(1, 10))
    with workdps(75):
        assert max(as_mp(v) for v in r1.values()) < mp.mpf("1e-55")
        assert max(as_mp(v) for v in r2.values()) < mp.mpf("1e-55")


def test_expansion_prediction_branches(rec_60):
    with workdps(75):
        pred_g, pred_b, branch = expansion_prediction(U_TENTH, 10, rec_60.gamma2[9])
        assert branch in ("upper", "lower")
        assert abs(pred_g - rec_60.gamma2[9]) < 1  # same scale sanity
        pg0, pb0, b0 = expansion_prediction(0, 10, mp.mpf(1))
        assert (pg0, pb0, b0) == (1, 0, "gaussian")
