import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cubicmaps.numbers import double_factorial
from cubicmaps.toda import genus_table
from cubicmaps.wick import MAX_VERTICES, census
from oracles import genus_of_pairing

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
    # torus thetas side by side on half-edges 6i..6i+5; five are p = 10, past
    # the census range
    for count in (2, 5):
        thetas = [(6 * i + a, 6 * i + a + 3) for i in range(count) for a in range(3)]
        d = genus_of_pairing(thetas)
        assert (d.vertices, d.faces, d.components) == (2 * count, count, count)
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
    6: ({0: 9797760, 1: 19362240, 2: 3061800}, 2237625),
    8: ({0: 45148078080, 1: 164367221760, 2: 89414357760}, 17304485625),
}


def _connected_matchings(p):
    """C_p, the connected matchings on p vertices, from M_q = (3q-1)!! alone
    (0 at odd q): the component of vertex 0 has k vertices, so
    M_p = sum_k C(p-1, k-1) C_k M_(p-k), the log of the matching EGF."""
    def m(q):
        return 0 if q % 2 else double_factorial(3 * q - 1)

    c = [0] * (p + 1)
    for q in range(1, p + 1):
        c[q] = m(q) - sum(comb(q - 1, k - 1) * c[k] * m(q - k) for k in range(1, q))
    return c[p]


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_census_frozen_values(p):
    c = census(p)
    connected, disconnected = CENSUS_TABLE[p]
    assert c.connected == connected
    assert c.disconnected == disconnected
    assert c.total == double_factorial(3 * p - 1)
    assert sum(c.connected.values()) + c.disconnected == c.total
    connected_total = _connected_matchings(p)
    assert sum(c.connected.values()) == connected_total
    assert c.disconnected == c.total - connected_total


def test_census_counts_equal_genus_coefficients():
    # the oracle equivalence: enumerated connected counts per genus against
    # the analytic table, p = 2j vertices
    table = genus_table(2, 4)
    for p in (2, 4, 6, 8):
        c = census(p)
        for g, count in c.connected.items():
            assert count == table.counts[g, p // 2]


def _matchings(p):
    """Every matching of the 3p half-edges, as (i, j) pair lists."""
    def extend(free, pairs):
        if not free:
            yield pairs
            return
        h, rest = free[0], free[1:]
        for k, j in enumerate(rest):
            yield from extend(rest[:k] + rest[k + 1:], pairs + [(h, j)])

    yield from extend(list(range(3 * p)), [])


@pytest.mark.parametrize("p", [2, 4])
def test_census_matches_per_matching_classifier(p):
    # the orbit weights against no symmetry at all: analyze run on each of
    # the (3p-1)!! whole matchings, tallied bin by bin
    genera = Counter()
    disconnected = total = 0
    for pairs in _matchings(p):
        topology = genus_of_pairing(pairs)
        total += 1
        if topology.connected:
            genera[topology.genus] += 1
        else:
            disconnected += 1
    c = census(p)
    assert total == c.total == double_factorial(3 * p - 1)
    assert c.disconnected == disconnected
    assert c.connected == {g: genera[g] for g in range(min(p // 2, 2) + 1)}
    assert set(genera) <= set(c.connected)


def test_census_rejects_bad_sizes():
    with pytest.raises(ValueError):
        census(3)
    with pytest.raises(ValueError):
        census(MAX_VERTICES + 2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 10]), st.integers(0, 2**32 - 1))
def test_descent_touches_vertices_in_order(p, seed):
    # one random path of the census descent, its partners drawn by the orbit
    # rule from the pairs placed so far: the touched vertices stay 0..fresh-1
    # with their free half-edges below the untouched 3 fresh..3p-1, and the
    # components are the openings h = 3 fresh (p = 10 is past MAX_VERTICES)
    rng = random.Random(seed)
    free, pairs, touched = list(range(3 * p)), [], set()
    fresh = opened = 0
    while free:
        assert touched == set(range(fresh))
        assert free[len(free) - 3 * (p - fresh):] == list(range(3 * fresh, 3 * p))
        h = free[0]
        if h == 3 * fresh:
            fresh += 1
            opened += 1
        partners = [t for t in free[1:] if t // 3 in touched or t // 3 == h // 3]
        untouched = sorted({t // 3 for t in free} - touched - {h // 3})
        if untouched:
            partners.append(3 * untouched[0])  # the orbit's first half-edge
        t = rng.choice(partners)
        if t == 3 * fresh:
            fresh += 1
        touched |= {h // 3, t // 3}
        pairs.append((h, t))
        free.remove(h)
        free.remove(t)
    assert genus_of_pairing(pairs).components == opened


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
