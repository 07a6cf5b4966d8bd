"""Exact census of vertex matchings, the combinatorial oracle.

Every matching of the 3p half-edges of p trivalent vertices is classified
by face count (cycles of rotation-after-matching) and vertex connectivity,
and the result tallied by genus.  Totals are exact integers; nothing is
sampled.

Matchings are built depth first, half-edge h = free[0] taking its partner
at each level.  Relabelling the vertices that no placed pair touches (other
than h's own), and rotating them, fixes h and every placed pair and commutes
with the rotation, so it changes neither faces nor components.  The free
half-edges on those k vertices are therefore one orbit of 3k partners: only
the first is paired, with weight 3k, and each leaf adds the product of the
weights above it to the tallies.  At p = 8 that is 46,895 leaves for the
23!! matchings.

Each matching is classified as it is built, not walked again at its leaf.
Each pair placed updates the open chains of the partial face permutation
(an edge that closes its own chain is a face) and a vertex union-find, and
backtracking undoes both, so a pair costs O(1); the last pair of each
matching is settled from the chain ends without recursion.  An independent
classifier of whole matchings, walked one at a time, lives with the test
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .numbers import double_factorial

ENGINE = "pure"

# p = 8 enumerates 46,895 weighted leaves in about 0.1 s; p = 10 would enumerate
# 1,402,050 (about 3 s) and reach genus 3, past the genus-2 table census reports
MAX_VERTICES = 8


def available_engines() -> tuple[str, ...]:
    return (ENGINE,)


class PairingCensus(NamedTuple):
    vertices: int
    total: int
    connected: dict[int, int]  # genus -> count
    disconnected: int
    elapsed_ms: int


# counterclockwise rotation to the next half-edge on the same vertex
_ROTATION = tuple(h - h % 3 + (h % 3 + 1) % 3 for h in range(3 * MAX_VERTICES))


def _max_genus(p: int) -> int:
    return (p // 2 + 1) // 2


def census(p: int) -> PairingCensus:
    """Full exact census over all (3p-1)!! matchings of p trivalent vertices.

    One weighted descent (see the module docstring): each enumerated leaf
    stands for the product of the orbit sizes chosen on its way down, and
    the weighted total must be (3p-1)!!.
    """
    if p % 2 or not 2 <= p <= MAX_VERTICES:
        raise ValueError(f"p must be even with 2 <= p <= {MAX_VERTICES}")
    start = time.perf_counter()
    n = 3 * p
    rot = _ROTATION
    # Faces are the cycles of c -> rot[match[c]].  A partial matching defines
    # that successor on its paired half-edges only, which leaves open chains:
    # head[e] is the first half-edge of the chain that ends at e, tail[s] the
    # last of the chain that starts at s (each read only at a chain's ends).
    # Pairing h with t adds the edges h -> rot[t] and t -> rot[h]; an edge
    # that closes its own chain is a face, any other joins two chains.
    head = list(range(n))
    tail = list(range(n))
    parent = list(range(p))  # vertex union-find, unions undone on backtrack
    by_faces = [0] * (n + 1)  # weighted connected leaves by face count
    leaves = [0, 0]  # weighted total, disconnected

    def descend(free, faces, comps, weight):
        # free is sorted, so an untouched vertex v is a run 3v, 3v+1, 3v+2 of
        # it; h = free[0] lies below every such run.  The partners on those
        # k runs form one orbit: only the first is paired, weighted 3k.
        h = free[0]
        rh = rot[h]
        m = len(free)
        choices = []
        first = untouched = 0
        i = 1
        while i < m:
            if free[i] % 3 == 0 and i + 2 < m and free[i + 2] == free[i] + 2:
                if not untouched:
                    first = i
                untouched += 1
                i += 3
            else:
                choices.append((i, weight))
                i += 1
        if untouched:
            choices.append((first, 3 * untouched * weight))
        for i, w in choices:
            t = free[i]
            rt = rot[t]
            f = faces
            a = head[h]
            b = tail[rt]
            if a == rt:
                f += 1
            else:
                tail[a] = b
                head[b] = a
            a2 = head[t]
            b2 = tail[rh]
            if a2 == rh:
                f += 1
            else:
                tail[a2] = b2
                head[b2] = a2
            ra = h // 3
            while parent[ra] != ra:
                ra = parent[ra]
            rb = t // 3
            while parent[rb] != rb:
                rb = parent[rb]
            c = comps
            if ra != rb:
                parent[ra] = rb
                c -= 1
            rest = free[1:i] + free[i + 1:]
            if len(rest) == 2:
                # the last pair closes either two chains or, joined, one
                x, y = rest
                f += 2 if head[x] == rot[y] else 1
                if c == 2:
                    rx = x // 3
                    while parent[rx] != rx:
                        rx = parent[rx]
                    ry = y // 3
                    while parent[ry] != ry:
                        ry = parent[ry]
                    if rx != ry:
                        c = 1
                leaves[0] += w
                if c == 1:
                    by_faces[f] += w
                else:
                    leaves[1] += w
            else:
                descend(rest, f, c, w)
            # undo in reverse order; a join overwrote one tail and one head
            if ra != rb:
                parent[ra] = ra
            if a2 != rh:
                tail[a2] = t
                head[b2] = rh
            if a != rt:
                tail[a] = h
                head[b] = rt

    descend(tuple(range(n)), 0, p, 1)
    total, disconnected = leaves
    if total != double_factorial(3 * p - 1):
        raise ArithmeticError(f"weighted total {total} != (3p-1)!!")
    tallies = [0] * (_max_genus(p) + 1)
    for faces, count in enumerate(by_faces):
        if count:
            twice = p // 2 + 2 - faces
            if twice % 2 or not 0 <= twice // 2 < len(tallies):
                raise ArithmeticError(f"{faces} faces on a connected {p}-vertex map")
            tallies[twice // 2] += count
    elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
    table_max = min(p // 2, 2)
    connected = {g: (tallies[g] if g < len(tallies) else 0) for g in range(table_max + 1)}
    return PairingCensus(
        vertices=p,
        total=total,
        connected=connected,
        disconnected=disconnected,
        elapsed_ms=elapsed_ms,
    )
