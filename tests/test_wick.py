import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cubicmaps.numbers import double_factorial
from cubicmaps.toda import genus_table
from cubicmaps.wick import (
    MAX_VERTICES,
    census,
    count_branch,
    genus_of_pairing,
)

# two trivalent vertices: the parallel matching traces one 6-face, the
# twisted one traces three faces
THETA_TORUS = [(0, 3), (1, 4), (2, 5)]
THETA_SPHERE = [(0, 3), (1, 5), (2, 4)]


def test_two_vertex_topologies():
    t = genus_of_pairing(THETA_TORUS)
    assert (t.faces, t.components, t.genus) == (1, 1, 1)
    s = genus_of_pairing(THETA_SPHERE)
    assert (s.faces, s.components, s.genus) == (3, 1, 0)
    assert s.connected and t.connected


def test_disconnected_pairing():
    two_thetas = [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]
    d = genus_of_pairing(two_thetas)
    assert d.components == 2
    assert d.genus is None
    assert not d.connected


def test_pairing_validation():
    with pytest.raises(ValueError):
        genus_of_pairing([(0, 0), (1, 2)])  # self-pair
    with pytest.raises(ValueError):
        genus_of_pairing([(0, 1), (1, 2), (3, 4)])  # reuse
    with pytest.raises(ValueError):
        genus_of_pairing([(0, 9), (1, 2), (3, 4)])  # out of range
    with pytest.raises(ValueError):
        genus_of_pairing([(0, 1), (2, 3)])  # 4 half-edges, no trivalent vertices


CENSUS_TABLE = {
    2: ({0: 12, 1: 3}, 0),
    4: ({0: 5184, 1: 4536, 2: 0}, 675),
}


@pytest.mark.parametrize("p", [2, 4])
def test_census_frozen_values(p):
    c = census(p)
    connected, disconnected = CENSUS_TABLE[p]
    assert c.connected == connected
    assert c.disconnected == disconnected
    assert c.total == double_factorial(3 * p - 1)
    assert sum(c.connected.values()) + c.disconnected == c.total


def test_census_counts_equal_genus_coefficients():
    # the oracle equivalence: enumerated connected counts per genus against
    # the analytic table, p = 2j vertices
    table = genus_table(2, 2)
    for p in (2, 4):
        c = census(p)
        for g, count in c.connected.items():
            assert count == table.count(g, p // 2)


@pytest.mark.parametrize("p", [2, 4])
def test_branch_symmetry_classes(p):
    # every branch of the partner t of half-edge 0 equals its class
    # representative, and the unweighted sum over all 3p-1 branches is the
    # census: the independent check of the weights 2 and 3(p-1)
    branches = {t: count_branch(p, t) for t in range(1, 3 * p)}
    for t, branch in branches.items():
        assert branch == branches[1 if t <= 2 else 3]
        assert branch[0] == double_factorial(3 * p - 3)
    c = census(p)
    assert sum(b[0] for b in branches.values()) == c.total
    assert sum(b[1] for b in branches.values()) == c.disconnected
    genera = range(len(branches[1][2]))
    assert [sum(b[2][g] for b in branches.values()) for g in genera] == [c.connected[g] for g in genera]


def _branch_matchings(p, t):
    """Every matching of the 3p half-edges that pairs 0 with t, as (i, j) pair lists."""
    def extend(free, pairs):
        if not free:
            yield pairs
            return
        h, rest = free[0], free[1:]
        for k, j in enumerate(rest):
            yield from extend(rest[:k] + rest[k + 1:], pairs + [(h, j)])

    yield from extend([h for h in range(1, 3 * p) if h != t], [(0, t)])


@pytest.mark.parametrize("p", [2, 4])
def test_branches_match_per_matching_classifier(p):
    # every branch, not only the representatives t = 1 and t = 3: the faces
    # and components count_branch tracks pair by pair against analyze run on
    # each whole matching
    for t in range(1, 3 * p):
        genera = Counter()
        disconnected = 0
        for pairs in _branch_matchings(p, t):
            topology = genus_of_pairing(pairs)
            if topology.connected:
                genera[topology.genus] += 1
            else:
                disconnected += 1
        total, branch_disconnected, branch_genera = count_branch(p, t)
        assert total == sum(genera.values()) + disconnected == double_factorial(3 * p - 3)
        assert branch_disconnected == disconnected
        assert {g: c for g, c in enumerate(branch_genera) if c} == genera


def test_census_rejects_bad_sizes():
    with pytest.raises(ValueError):
        census(3)
    with pytest.raises(ValueError):
        census(MAX_VERTICES + 2)
    with pytest.raises(ValueError):
        count_branch(4, 12)  # half-edge 0 has partners 1..3p-1 only


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_four_vertex_pairings_classify(seed):
    halves = list(range(12))
    random.Random(seed).shuffle(halves)
    pairs = [(halves[2 * i], halves[2 * i + 1]) for i in range(6)]
    t = genus_of_pairing(pairs)
    assert t.vertices == 4
    assert t.faces >= 1
    assert 1 <= t.components <= 2
    if t.connected:
        assert t.genus in (0, 1)  # no genus-2 map exists on 4 trivalent vertices
    else:
        assert t.genus is None
