"""Exact census of vertex matchings, the combinatorial oracle.

Every matching of the 3p half-edges of p trivalent vertices is counted by
face count (cycles of c -> rot[match[c]], rot the counterclockwise next
half-edge on a vertex) and vertex connectivity, and the result tallied by
genus.  Totals are exact integers; nothing is sampled.

The state.  Place pairs one at a time, each from a free half-edge h on a
vertex already touched.  For a free half-edge x on a touched vertex, let
sigma(x) be the free half-edge where the chain of placed pairs starting at
rot[x] ends.  Pairing h with t closes or joins chains through sigma alone,
so a new pair reads nothing else about the touched part; relabelling
half-edges conjugates sigma and maps completions to completions with the
same faces and components.  The count of completions therefore depends only
on k, the number of untouched vertices, and lambda, the cycle type of
sigma.  It starts at (p - 1, (3)): vertex 0 touched, sigma = rot on it.

The moves.  Take h on a cycle of lambda of length a.  Its partner t is
* split: t = sigma^d(h) on h's own cycle, d = 1..a-1, weight 1 each; the
  cycle splits into lengths d - 1 and a - d - 1, each zero a closed face;
* join: t on another cycle of length b, weight b per such cycle; the two
  join into one of length a + b - 2, a closed face when a = b = 1;
* grow: t on an untouched vertex, weight 3k, since relabelling and rotating
  the untouched vertices fixes the touched part; h's cycle grows to length
  a + 1 and k drops by 1.

An empty lambda with k = 0 is a finished connected matching, tallied by its
faces.  With k > 0 the one open component has closed, and all (3k - 1)!!
completions of the untouched vertices are disconnected.  There is only one
open component because h is always on the boundary and t is on the
boundary or on an untouched vertex, so every touched vertex stays in vertex
0's component until lambda empties.

The count is a recursion on (k, sorted lambda), memoized within one census
call.  A state's connected completions are one integer, packed by faces:
slot f, bits f*B to f*B + B - 1 with B = ((3p - 1)!!).bit_length() + 1,
holds the number of its completions that close f faces, and a move that
closes c faces adds weight * child << c*B.  No slot overflows.  Each pair
uses up two free half-edges, so a state has at most 3p of them and at most
(3p - 1)!! < 2^B completions, and every term is nonnegative, so no carry
crosses a slot; one would also break the (3p - 1)!! total census checks.

No string equation, Toda step or hierarchy code enters the count; an
independent classifier of whole matchings, walked one at a time, lives with
the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import time
from bisect import bisect, insort
from typing import NamedTuple

from .numbers import double_factorial

ENGINE = "pure"

# p = 32 visits 8,693 states in 0.046 s, p = 24 2,108 in 0.008 s and p = 10
# 107 in 0.24 ms (2-core Xeon, Python 3.11); every even p <= 32 takes about
# 0.15 s together.  genus_table(8, 16), criterion 5's reference, reaches
# p = 32 and genus 8
MAX_VERTICES = 32


def available_engines() -> tuple[str, ...]:
    return (ENGINE,)


class PairingCensus(NamedTuple):
    vertices: int
    total: int
    connected: dict[int, int]  # genus -> count
    disconnected: int
    elapsed_ms: int


def census(p: int) -> PairingCensus:
    """Full exact census over all (3p-1)!! matchings of p trivalent vertices.

    One memoized recursion on the state (k, lambda) (see the module
    docstring); the weighted total must be (3p-1)!!.
    """
    if p % 2 or not 2 <= p <= MAX_VERTICES:
        raise ValueError(f"p must be even with 2 <= p <= {MAX_VERTICES}")
    start = time.perf_counter()
    matchings = double_factorial(3 * p - 1)
    shift = matchings.bit_length() + 1  # the width of one face slot
    memo = {}

    def completions(k, cycles):
        # (connected completions packed by the faces they close, disconnected
        # completions) of k untouched vertices and boundary cycle lengths cycles, sorted
        key = k, cycles
        found = memo.get(key)
        if found is not None:
            return found
        if not cycles:
            found = (1, 0) if k == 0 else (0, double_factorial(3 * k - 1))
        else:
            # h on a shortest cycle (2,096 unfinished states at p = 24, 3,701 on a longest)
            a, rest = cycles[0], cycles[1:]
            packed = disconnected = 0
            # split: the splits at d and a - d leave the same state, so d stops at
            # a / 2; then d - 1 <= a - d - 1 < a <= rest[0], and a - d - 1 = 0 only
            # at a = 2, so the zeros (closed faces) come first and the rest lead rest
            for d in range(1, a // 2 + 1):
                closed = (d == 1) + (a == 2)
                faces, lost = completions(k, (d - 1, a - d - 1)[closed:] + rest)
                weight = 1 + (2 * d < a)
                packed += weight * faces << closed * shift
                disconnected += weight * lost
            # join: the cycles of length b are rest[i:j], weight b each
            i = 0
            while i < len(rest):
                b = rest[i]
                j = bisect(rest, b, i)
                child = list(rest)
                del child[i]
                if a + b > 2:
                    insort(child, a + b - 2)
                faces, lost = completions(k, tuple(child))
                weight = b * (j - i)
                packed += weight * faces << (a + b == 2) * shift
                disconnected += weight * lost
                i = j
            if k:  # grow
                child = list(rest)
                insort(child, a + 1)
                faces, lost = completions(k - 1, tuple(child))
                packed += 3 * k * faces
                disconnected += 3 * k * lost
            found = packed, disconnected
        memo[key] = found
        return found

    packed, disconnected = completions(p - 1, (3,))
    by_faces, mask = [], (1 << shift) - 1
    while packed:
        by_faces.append(packed & mask)
        packed >>= shift
    total = sum(by_faces) + disconnected
    if total != matchings:
        raise ArithmeticError(f"weighted total {total} != (3p-1)!!")
    # bins through the top genus of a connected p-vertex map, (p + 2) // 4, and through 2 while p // 2 allows
    table_max = min(p // 2, max(2, (p + 2) // 4))
    tallies = [0] * (table_max + 1)
    for faces, count in enumerate(by_faces):
        if count:
            twice = p // 2 + 2 - faces
            if twice % 2 or not 0 <= twice // 2 < len(tallies):
                raise ArithmeticError(f"{faces} faces on a connected {p}-vertex map")
            tallies[twice // 2] += count
    elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
    return PairingCensus(
        vertices=p,
        total=total,
        connected=dict(enumerate(tallies)),
        disconnected=disconnected,
        elapsed_ms=elapsed_ms,
    )
