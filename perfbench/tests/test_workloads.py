import random

import pytest

from workloads import WORKLOADS, make_jobs, tail_percentile


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert make_jobs(workload, 7, 25) == make_jobs(workload, 7, 25)
    assert make_jobs(workload, 7, 25) != make_jobs(workload, 8, 25)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_two_jobs_share_an_argv_outside_the_census(workload):
    jobs = [a for a in make_jobs(workload, 3, 25) if a[0] != "oracle"]
    assert len({tuple(a) for a in jobs}) == len(jobs)


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert tail_percentile(34) == 100
    assert tail_percentile(35) == 71
    assert tail_percentile(240) == 95
    for n in range(35, 300):
        q = tail_percentile(n)
        assert n - -(-q * n // 100) >= 10
        assert n - -(-(q + 1) * n // 100) < 10 or q == 99


def test_antithetic_pairs_mirror_about_their_stratum_middle():
    from workloads import _antithetic

    for seed in range(20):
        picks = _antithetic(list(range(60)), 6, random.Random(seed), int)
        assert len(set(picks)) == 6
        # strata [0, 20), [20, 40), [40, 60): each pair sums to 2 * middle - 1
        assert [a + b for a, b in zip(picks[::2], picks[1::2])] == [19, 59, 99]


def test_exact_long_median_is_a_mirrored_pair_and_max_the_dearest_job():
    cost = lambda a: int(a[4]) + 14 * int(a[2])  # noqa: E731  (the proxy's order)
    medians = set()
    for seed in range(10):
        jobs = sorted(make_jobs("exact-long", seed, 25), key=cost)
        assert jobs[-1][2:5] == ["1", "--max-j", "130"]
        mid = len(jobs) // 2
        medians.add(cost(jobs[mid - 1]) + cost(jobs[mid]))
    assert max(medians) - min(medians) <= 2
