"""The bipartite adjacency graph of two co-tailed genomes.

Vertices are the adjacencies of genome A and genome B; two adjacencies are
linked when they share a block extremity.  With co-tailed inputs every
vertex has degree two, so the graph decomposes into even cycles and the DCJ
distance is N - (C + K): block count minus cycle count minus the number of
linear chromosomes.

Each cycle's B-adjacencies are labeled 1..n in traversal order, which turns
every cycle-splitting DCJ on genome A into a fission of the integer cycle
(1 2 ... n).  `CycleTracker` maintains that correspondence while fissions
are applied, translating each one into the unique DCJ that performs the
same split on the current genome.

Building the graph for N blocks takes one sort of the block names and O(N)
list work.  The block of rank r in name order has extremity ids 2r (tail)
and 2r + 1 (head), so id order is `Extremity` order; both partner lists
are carried over to these ids, and each cycle is walked, in ascending id
order, from its smallest extremity, which gives the canonical labeling at
once.  The `LabeledCycle`s of `Extremity` tuples are built only on demand.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, pairwise
from typing import NamedTuple, Sequence

from .errors import BlockMismatchError, InvalidFissionError, InvalidScenarioError, NotCoTailedError
from .fissions import CyclePartition, FissionScenario, require_valid
from .genome import HEAD, TAIL, Adjacency, DcjOp, Extremity, Genome, adjacency, make_dcj


class LabeledCycle(NamedTuple):
    """One cycle; b_order[i] carries label i+1, a_between[i] sits after it."""

    b_order: tuple[Adjacency, ...]
    a_between: tuple[Adjacency, ...]

    @property
    def n(self) -> int:
        return len(self.b_order)

    @property
    def length(self) -> int:
        return 2 * len(self.b_order)


def _ranked_partners(g: Genome, rank: dict[str, int]) -> tuple[list[int], list[int]]:
    """g's partner list and sorted telomeres over the ids of `rank` (name -> 2r)."""
    tails = list(map(rank.get, g._names))
    if len(tails) != len(rank) or None in tails:
        raise BlockMismatchError("genomes are over different block sets")
    new = [-1] * (2 * len(tails) + 1)  # new[-1] == -1 keeps telomeres at -1
    new[0:-1:2] = tails
    new[1:-1:2] = [t + 1 for t in tails]
    out = new[:-1]
    for x, y in zip(new, g._partner):
        out[x] = new[y]
    return out, sorted(new[t] for t in g._telomere_ids)


class AdjacencyGraph:
    """Cycle decomposition of the adjacency graph of two co-tailed genomes.

    Cycles are listed by their smallest contained extremity, and each cycle
    is traversed starting from the B-adjacency holding that extremity,
    leaving through it, so labelings are reproducible across runs and do
    not depend on set iteration order.
    """

    __slots__ = ("genome_a", "genome_b", "_names", "_pa", "_pb", "_exits", "_sizes", "_cycles")

    def __init__(self, a: Genome, b: Genome):
        names = sorted(a._names)
        rank = dict(zip(names, range(0, 2 * len(names), 2)))
        (pa, telomeres), (pb, telomeres_b) = _ranked_partners(a, rank), _ranked_partners(b, rank)
        if telomeres != telomeres_b:
            raise NotCoTailedError("genomes are not co-tailed")
        self.genome_a, self.genome_b = a, b
        self._names, self._pa, self._pb, self._cycles = names, pa, pb, None

        # label 1 of a cycle is the B-adjacency of its least extremity x, left through x;
        # each next label is entered via the A-partner of the last exit (kept in _exits)
        self._exits, self._sizes = exits, sizes = [], []
        seen = bytearray(len(pb))
        for t in telomeres:
            seen[t] = 1
        x = seen.find(0)
        while x >= 0:
            exit_, stop, first = x, pb[x], len(exits)
            while True:
                entry = pa[exit_]
                exits.append(exit_)
                seen[exit_] = seen[entry] = 1
                if entry == stop:
                    break
                exit_ = pb[entry]
            sizes.append(len(exits) - first)
            x = seen.find(0, x + 1)

    @property
    def cycles(self) -> tuple[LabeledCycle, ...]:
        if self._cycles is None:
            ext = [Extremity(name, end) for name in self._names for end in (TAIL, HEAD)]
            b_side = [adjacency(ext[x], ext[self._pb[x]]) for x in self._exits]
            a_side = [adjacency(ext[x], ext[self._pa[x]]) for x in self._exits]
            bounds = pairwise(accumulate(self._sizes, initial=0))
            self._cycles = tuple(LabeledCycle(tuple(b_side[i:j]), tuple(a_side[i:j])) for i, j in bounds)
        return self._cycles

    @property
    def n_blocks(self) -> int:
        return self.genome_a.n_blocks

    @property
    def n_cycles(self) -> int:
        return len(self._sizes)

    @property
    def n_linear(self) -> int:
        return self.genome_a.n_linear

    @property
    def distance(self) -> int:
        return self.n_blocks - (self.n_cycles + self.n_linear)

    @property
    def profile(self) -> tuple[int, ...]:
        """Sorting steps needed per cycle: a 2(l+1)-cycle contributes l."""
        return tuple(n - 1 for n in self._sizes)

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(2 * n for n in self._sizes)


def build_adjacency_graph(a: Genome, b: Genome) -> AdjacencyGraph:
    return AdjacencyGraph(a, b)


def dcj_distance(a: Genome, b: Genome) -> int:
    return AdjacencyGraph(a, b).distance


class CycleTracker:
    """Mutable sorting state of one labeled cycle.

    Every label i is a B-adjacency entered through one extremity and left
    through the other, and those two never change; only successors do.
    The genome-A adjacency in the gap after label i is therefore always
    (exit of i, entry of its successor), so each fission maps to a
    concrete DCJ even after earlier fissions rewired parts of the cycle.
    """

    __slots__ = ("cycle", "_succ", "_entry", "_exit")

    def __init__(self, cycle: LabeledCycle):
        n = cycle.n
        self.cycle = cycle
        # lists indexed by label 1..n; slot 0 is unused
        self._succ = [0, *range(2, n + 1), 1]
        # label i leaves through the extremity it shares with a_between[i-1]
        self._exit = [None] + [b[0] if b[0] in a else b[1] for b, a in zip(cycle.b_order, cycle.a_between)]
        self._entry = [None] + [b[1] if b[0] == x else b[0] for b, x in zip(cycle.b_order, self._exit[1:])]

    def members(self, label: int) -> tuple[int, ...]:
        out = [label]
        x = self._succ[label]
        while x != label:
            out.append(x)
            x = self._succ[x]
        return tuple(out)

    def partition(self) -> CyclePartition:
        blocks = []
        placed = set()
        for label in range(1, self.cycle.n + 1):
            if label in placed:
                continue
            block = self.members(label)
            placed.update(block)
            blocks.append(tuple(sorted(block)))
        return tuple(sorted(blocks))

    def partner(self, base: int) -> int:
        return self._succ[base]

    def fission_to_dcj(self, fission) -> DcjOp:
        """Translate one fission into the DCJ performing the same split."""
        base, top = fission
        n = self.cycle.n
        if not 1 <= base < top <= n:
            raise InvalidFissionError(f"fission ({base}, {top}) is out of range for a {n}-cycle")
        if top not in self.members(base):
            raise InvalidFissionError(f"base {base} and top {top} lie in different cycles")
        succ, entry, exit_ = self._succ, self._entry, self._exit
        after_base = succ[base]
        after_top = succ[top]
        # cut the gaps after base and after top; re-pair their ends so the
        # excised arc (after_base .. top) closes on itself and the
        # remainder reconnects
        op = make_dcj(
            ((exit_[base], entry[after_base]), (exit_[top], entry[after_top])),
            ((exit_[top], entry[after_base]), (exit_[base], entry[after_top])),
        )
        succ[base] = after_top
        succ[top] = after_base
        return op


def realize_scenario(
    a: Genome,
    b: Genome,
    per_cycle: Sequence[FissionScenario],
    interleaving: Sequence[int],
) -> tuple[DcjOp, ...]:
    """Translate per-cycle scenarios into one global DCJ sequence.

    `interleaving` lists, step by step, which cycle (0-based index) moves
    next; cycle m must appear exactly as often as its scenario has steps.
    Applying the returned operations in order transforms `a` into `b`.
    """
    graph = build_adjacency_graph(a, b)
    if len(per_cycle) != graph.n_cycles:
        raise InvalidScenarioError(
            f"expected {graph.n_cycles} per-cycle scenarios, got {len(per_cycle)}"
        )
    for m, (scenario, cycle) in enumerate(zip(per_cycle, graph.cycles)):
        if scenario.n != cycle.n:
            raise InvalidScenarioError(
                f"scenario {m} sorts a {scenario.n}-cycle but cycle {m} has {cycle.n} target adjacencies"
            )
        require_valid(scenario)
    expected = {m: cycle.n - 1 for m, cycle in enumerate(graph.cycles) if cycle.n > 1}
    actual = dict(Counter(interleaving))
    if actual != expected:
        raise InvalidScenarioError("interleaving does not match the per-cycle step counts")
    return realize(graph, per_cycle, interleaving)


def realize(graph: AdjacencyGraph, per_cycle: Sequence[FissionScenario], interleaving: Sequence[int]):
    """`realize_scenario` on a built graph, minus its input checks (sampled scenarios pass them)."""
    trackers = [CycleTracker(c) for c in graph.cycles]
    steps = [iter(s.steps) for s in per_cycle]
    return tuple(trackers[m].fission_to_dcj(next(steps[m])) for m in interleaving)
