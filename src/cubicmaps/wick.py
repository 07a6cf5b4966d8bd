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
call.  No string equation, Toda step or hierarchy code enters it; an
independent classifier of whole matchings, walked one at a time, lives with
the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .numbers import double_factorial

ENGINE = "pure"

# p = 24 visits 2,096 states in 0.021 s and p = 10 visits 102 in 0.5 ms
# (2-core Xeon, Python 3.11); every even p <= 24 takes about 0.06 s together.
# genus_table(6, 12), criterion 5's reference, reaches p = 24 and genus 6
MAX_VERTICES = 24


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
    memo = {}

    def completions(k, cycles):
        # (connected completions by faces they close, disconnected completions)
        # of k untouched vertices and boundary cycle lengths cycles, sorted
        key = (k, cycles)
        if key in memo:
            return memo[key]
        if not cycles:
            return ([1], 0) if k == 0 else ([], double_factorial(3 * k - 1))
        # h on a shortest cycle: 2,096 states at p = 24, 3,701 on a longest
        a, rest = cycles[0], cycles[1:]
        # (weight, k after the pair, cycle lengths after it, each 0 a closed face);
        # the splits at d and a - d leave the same state, so d stops at a / 2
        moves = [(1 + (2 * d < a), k, rest + (d - 1, a - d - 1)) for d in range(1, a // 2 + 1)]
        moves += [(b * rest.count(b), k, rest[:i] + rest[i + 1:] + (a + b - 2,))
                  for i, b in enumerate(rest) if i == 0 or rest[i - 1] != b]
        if k:
            moves.append((3 * k, k - 1, rest + (a + 1,)))
        by_faces, disconnected = [], 0
        for weight, k_next, lengths in moves:
            closed = lengths.count(0)
            faces_next, disconnected_next = completions(k_next, tuple(sorted(lengths))[closed:])
            by_faces += [0] * (closed + len(faces_next) - len(by_faces))
            for faces, count in enumerate(faces_next, closed):
                by_faces[faces] += weight * count
            disconnected += weight * disconnected_next
        memo[key] = by_faces, disconnected
        return memo[key]

    by_faces, disconnected = completions(p - 1, (3,))
    total = sum(by_faces) + disconnected
    if total != double_factorial(3 * p - 1):
        raise ArithmeticError(f"weighted total {total} != (3p-1)!!")
    tallies = [0] * ((p // 2 + 1) // 2 + 1)
    for faces, count in enumerate(by_faces):
        if count:
            twice = p // 2 + 2 - faces
            if twice % 2 or not 0 <= twice // 2 < len(tallies):
                raise ArithmeticError(f"{faces} faces on a connected {p}-vertex map")
            tallies[twice // 2] += count
    elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
    table_max = min(p // 2, max(2, (p + 2) // 4))
    connected = {g: (tallies[g] if g < len(tallies) else 0) for g in range(table_max + 1)}
    return PairingCensus(
        vertices=p,
        total=total,
        connected=connected,
        disconnected=disconnected,
        elapsed_ms=elapsed_ms,
    )
