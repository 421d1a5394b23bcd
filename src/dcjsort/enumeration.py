"""Exact counting, exhaustive oracles, and uniform sampling of scenarios.

The closed-form count multiplies the number of ways to shuffle the
per-cycle scenarios (a multinomial over their lengths) by the number of
scenarios per cycle, (l+1)^(l-1) for a cycle needing l sorting steps.  The
two enumerators here are deliberately independent of that formula and of
each other: one walks the abstract fission state space, the other tries
every DCJ on the actual genome and keeps the distance-reducing ones.  Both
exist so the closed forms and the codecs can be checked against brute
force on small instances.

Uniform sampling draws one rank below the multinomial and unranks it into
an interleaving.  Of the M interleavings of R remaining steps, exactly
M*r_m/R start with one of the r_m steps left to cycle m, so a Fenwick tree
over the remaining counts picks each step in O(log C): O(L log C) for L
steps over C cycles, with one multinomial per interleaving.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, islice
from typing import Iterator, Sequence

from .adjacency_graph import build_adjacency_graph, dcj_distance
from .errors import GuardExceededError
from .fissions import Fission, FissionScenario, apply_fission, single_cycle
from .genome import DcjOp, Genome, apply_dcj, make_dcj
from .trees import prufer_decode, tree_to_scenario

#: Exhaustive scenario enumeration is refused above this n without force.
MAX_ENUM_N = 8
#: The brute-force DCJ oracle is refused above this distance without force.
MAX_ORACLE_DISTANCE = 5


def make_rng(seed: int) -> random.Random:
    """Deterministic generator: the same seed yields the same stream."""
    return random.Random(seed)


def multinomial(lengths: Sequence[int]) -> int:
    """Exact count of interleavings of groups with the given sizes."""
    total = 0
    out = 1
    for length in lengths:
        if length < 0:
            raise ValueError("lengths must be non-negative")
        total += length
        out *= math.comb(total, length)
    return out


def count_scenarios(lengths: Sequence[int]) -> int:
    """Exact number of parsimonious sorting scenarios for a cycle profile."""
    out = multinomial(lengths)
    for length in lengths:
        if length >= 1:
            out *= (length + 1) ** (length - 1)
    return out


def _legal_fissions(part):
    found = []
    for block in part:
        if len(block) >= 2:
            found.extend(Fission(p, t) for p, t in combinations(block, 2))
    return sorted(found)


def enumerate_scenarios(
    n: int, limit: int | None = None, force: bool = False
) -> Iterator[FissionScenario]:
    """All valid scenarios on (1..n), in lexicographic step order."""
    if n < 1:
        raise ValueError(f"cycle size must be positive, got {n}")
    if n > MAX_ENUM_N and not force:
        raise GuardExceededError(
            f"n={n} exceeds the enumeration guard of {MAX_ENUM_N}; pass force=True (CLI: --force) to override"
        )

    def walk(part, steps):
        if len(steps) == n - 1:
            yield FissionScenario(n, tuple(steps))
            return
        for f in _legal_fissions(part):
            steps.append(f)
            yield from walk(apply_fission(part, f), steps)
            steps.pop()

    gen = walk(single_cycle(n), [])
    return gen if limit is None else islice(gen, limit)


def _sorting_ops(g: Genome, target: Genome, dist: int) -> list[DcjOp]:
    """Every DCJ on g that moves it one step closer to the target."""
    ops = []
    for x, y in combinations(sorted(g.adjacencies), 2):
        (e1, e2), (e3, e4) = x, y
        for form in (((e1, e3), (e2, e4)), ((e1, e4), (e2, e3))):
            op = make_dcj((x, y), form)
            if dcj_distance(apply_dcj(g, op), target) == dist - 1:
                ops.append(op)
    return sorted(ops)


def enumerate_dcj_sorting_scenarios(
    a: Genome, b: Genome, limit: int | None = None, force: bool = False
) -> Iterator[tuple[DcjOp, ...]]:
    """Brute force: depth-first search over distance-reducing DCJs.

    Independent of the fission model; used as an oracle against the
    closed-form counts.
    """
    dist = build_adjacency_graph(a, b).distance
    if dist > MAX_ORACLE_DISTANCE and not force:
        raise GuardExceededError(
            f"distance {dist} exceeds the oracle guard of {MAX_ORACLE_DISTANCE}; "
            "pass force=True (CLI: --force) to override"
        )

    def walk(g, d, prefix):
        if d == 0:
            yield tuple(prefix)
            return
        for op in _sorting_ops(g, b, d):
            prefix.append(op)
            yield from walk(apply_dcj(g, op), d - 1, prefix)
            prefix.pop()

    gen = walk(a, dist, [])
    return gen if limit is None else islice(gen, limit)


def sample_scenario(n: int, rng: random.Random) -> FissionScenario:
    """One scenario, uniform over all n^(n-2) of them.

    Draws a uniform Prüfer sequence, decodes it to a tree, and reads the
    scenario off the tree; uniformity carries through the bijections.
    """
    if n < 1:
        raise ValueError(f"cycle size must be positive, got {n}")
    seq = tuple(rng.randrange(n) for _ in range(n - 2)) if n > 2 else ()
    return tree_to_scenario(prufer_decode(seq, n))


def interleave(
    per_cycle: Sequence[FissionScenario], selector: int | random.Random
) -> tuple[tuple[int, Fission], ...]:
    """Merge per-cycle steps into one (cycle index, fission) sequence.

    An integer selector picks that interleaving by lexicographic rank over
    cycle-index sequences; a random.Random draws one uniformly.  Each
    cycle's own steps always stay in order.

    Unranking never recounts: with M interleavings and R = sum(r) steps
    left, exactly M*r_m/R of them start with cycle m, so the next cycle is
    the first m whose prefix sum P_m of the remaining counts exceeds
    index*R // M.  A Fenwick tree over the remaining counts finds it in one
    O(log C) descent; the rank then drops by M*P_(m-1)/R and M becomes
    M*r_m/R.  That is O(L log C) for L steps over C cycles.
    """
    lengths = [len(s.steps) for s in per_cycle]
    total = multinomial(lengths)
    if isinstance(selector, random.Random):
        index = selector.randrange(total)
    else:
        index = int(selector)
        if not 0 <= index < total:
            raise IndexError(f"interleaving index {index} out of range 0..{total - 1}")

    size = len(lengths)
    fenwick = [0, *lengths]  # 1-based: fenwick[i] sums the remaining counts over (i - lowbit(i), i]
    for i in range(1, size + 1):
        up = i + (i & -i)
        if up <= size:
            fenwick[up] += fenwick[i]
    high = 1 << size.bit_length() >> 1
    left = sum(lengths)
    count = total
    cursor = [0] * size
    merged = []
    while left:
        target = index * left // count
        m = below = 0
        step = high
        while step:
            if m + step <= size and below + fenwick[m + step] <= target:
                m += step
                below += fenwick[m]
            step >>= 1
        # m is the 0-based first cycle whose prefix sum exceeds target; below = P_(m-1)
        index -= count * below // left
        count = count * (lengths[m] - cursor[m]) // left
        left -= 1
        merged.append((m, per_cycle[m].steps[cursor[m]]))
        cursor[m] += 1
        i = m + 1
        while i <= size:
            fenwick[i] -= 1
            i += i & -i
    return tuple(merged)
