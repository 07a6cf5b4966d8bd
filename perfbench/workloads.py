"""Seeded job lists: each job is the argv a user would pass to ``cubicmaps``.

The program sees only these argument lists.  A run times its list in
``PASSES[workload]`` fresh workers and averages each job over them, so the
list of one pass is sized to a share of ``--seconds``.  Jobs are drawn by
antithetic stratified sampling over a pool ordered by a rough cost proxy:
each stratum gives a pair of picks mirrored about its middle, so a cheaper
pick is offset by a dearer one and two seeds give different jobs but nearly
the same work, in total and in each order statistic.  Where a list is too
short for a tail percentile it holds its pool's dearest job on every seed
(``exact-long`` also the cheapest, which puts its median on a pair), so the
max does not move with the seed either.  Job counts follow ``--seconds``
through fixed per-workload rates measured on a 2-core machine with the
pure-Python census engine and mpmath's Python backend, never through the
speed of the program under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-long", "exact-deep", "finite-n", "census")

# fresh-worker passes over one list in a run; a job's time is its mean over them
PASSES = {"exact-long": 3, "exact-deep": 2, "finite-n": 3, "census": 2}

_COUPLINGS = ("2/25", "1/16")  # finite-N couplings either side of u_c, of equal validate cost


def _antithetic(pool, n, rng, cost):
    """n distinct picks (n even): one pair from each of n/2 equal strata of pool sorted by cost.

    The pair of a stratum sits at a random distance on either side of its
    middle, so what one pick gains in cost the other about gives back.
    """
    if n % 2 or n > len(pool):
        raise ValueError(f"{n} jobs requested from a pool of {len(pool)}; need an even count")
    ordered = sorted(pool, key=cost)
    bounds = [round(2 * i * len(ordered) / n) for i in range(n // 2 + 1)]
    picks = []
    for lo, hi in zip(bounds, bounds[1:]):
        mid = (lo + hi) // 2
        k = rng.randrange(min(mid - lo, hi - mid))
        picks += [ordered[mid - 1 - k], ordered[mid + k]]
    return picks


def _ends_and_antithetic(pool, n, rng, cost):
    """The cheapest and the dearest job of pool and n antithetic picks from the rest.

    With n/2 odd the list's median is the mean of the mirrored pair of the
    middle stratum and its max the dearest job, so neither moves with the seed.
    """
    ordered = sorted(pool, key=cost)
    return [ordered[0], ordered[-1]] + _antithetic(ordered[1:-1], n, rng, cost)


def _even(x: float) -> int:
    return max(2, 2 * round(x / 2))


def _exact_long(rng, seconds):
    pool = [["expand", "--genus", g, "--max-j", str(j), "--format", fmt]
            for g in ("0", "1") for fmt in ("json", "csv") for j in range(60, 131)]
    # about 0.3 s at J = 60 growing as J^2.3; genus 1 costs like genus 0 at a J 14 larger
    jobs = _ends_and_antithetic(pool, _even(0.24 * seconds), rng, lambda a: (int(a[4]) + 14 * int(a[2])) ** 2.3)
    rng.shuffle(jobs)
    return jobs


def _exact_deep(rng, seconds):
    # within one max-k the cost grows with the horizon, so each max-k gets its
    # own antithetic picks from horizons 8..19; the dearest job (9, 20) is on
    # every list, so the top of the list does not move with the seed
    jobs = [["hierarchy", "--max-k", "9", "--horizon", "20"]]
    for k in range(5, 10):
        horizons = _antithetic(list(range(8, 20)), _even(0.16 * seconds), rng, int)
        jobs += [["hierarchy", "--max-k", str(k), "--horizon", str(h)] for h in horizons]
    critical = [["critical", "--max-genus", str(g)] for g in range(8, 25)]
    jobs += _antithetic(critical, min(16, _even(0.64 * seconds)), rng, lambda a: int(a[2]))  # 17 in the pool
    rng.shuffle(jobs)
    return jobs


def _finite_n(rng, seconds):
    # the validate job carries most of the time and is the list's max, so its
    # cost must not move with the seed: N and the precision move it, and so
    # does the coupling (about 25% more at 2/25, 1/16 than at 1/10, 1/12), so
    # the seed picks only between two couplings of equal cost.  It runs first,
    # so it pays the Gauss-Legendre node table whatever the order of the rest.
    # A --toda job (6 s at N = 1) was left out: one job that long spread the
    # run's times more than the bounds allow.
    validate = ["validate", "--N", "4", "--u", rng.choice(_COUPLINGS), "--precision", "80"]
    equilibrium = [["equilibrium", "--u", f"1/{d}"] for d in range(14, 61)]
    rest = _antithetic(equilibrium, _even(0.48 * seconds), rng, lambda a: -int(a[2][2:]))
    rng.shuffle(rest)
    return [validate] + rest


def _census(rng, seconds):
    # every census job is one of two argvs; the seed only orders them
    jobs = ([["oracle", "--vertices", "4", "--workers", "1"]] * max(1, round(2.8 * seconds))
            + [["oracle", "--vertices", "2", "--workers", "1"]] * max(1, round(0.28 * seconds)))
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {
    "exact-long": _exact_long,
    "exact-deep": _exact_deep,
    "finite-n": _finite_n,
    "census": _census,
}


def make_jobs(workload: str, seed: int, seconds: int) -> list[list[str]]:
    """The job list of one pass: same (workload, seed, seconds), same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not 1 <= seconds <= 60:
        raise ValueError("seconds must be between 1 and 60")
    rng = random.Random(f"{workload}/{seed}")
    return [list(a) for a in _BUILDERS[workload](rng, seconds)]


def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile with at least ten jobs beyond it.

    Below 35 jobs that percentile would fall under p71, no tail at all, so the
    tail is the max (100); the lists of such workloads hold their pool's dearest
    job on every seed.
    """
    if n_jobs < 35:
        return 100
    return (100 * (n_jobs - 10)) // n_jobs
