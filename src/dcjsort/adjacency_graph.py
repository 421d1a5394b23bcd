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

Building the graph takes O(N) dictionary work plus O(C log C) for N blocks
and C cycles: one map per genome from extremity to adjacency, one walk
around each cycle in whatever order the adjacencies come, and a sort of
the C cycles by their smallest extremity.  The extremities themselves are
never sorted; each walked cycle is rotated, or reversed, so that
it starts where the canonical walk starts.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import InvalidFissionError, InvalidScenarioError, NotCoTailedError
from .fissions import CyclePartition, FissionScenario, require_valid
from .genome import Adjacency, DcjOp, Genome, co_tailed, make_dcj


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


class AdjacencyGraph:
    """Cycle decomposition of the adjacency graph of two co-tailed genomes.

    Cycles are listed by their smallest contained extremity, and each cycle
    is traversed starting from the B-adjacency holding that extremity,
    leaving through it, so labelings are reproducible across runs and do
    not depend on set iteration order.
    """

    __slots__ = ("genome_a", "genome_b", "cycles")

    def __init__(self, a: Genome, b: Genome):
        if not co_tailed(a, b):
            raise NotCoTailedError("genomes are not co-tailed")
        self.genome_a = a
        self.genome_b = b

        ext_to_a = {e: adj for adj in a.adjacencies for e in adj}
        ext_to_b = {e: adj for adj in b.adjacencies for e in adj}
        # co-tailed genomes cover exactly the same non-telomere extremities:
        # the walk below finds every B extremity among A's (it leaves each
        # B-adjacency through an A key and enters it from an A-adjacency),
        # so equal sizes make the key sets equal
        assert len(ext_to_a) == len(ext_to_b)

        walks = []
        seen = set()
        for first in b.adjacencies:
            if first in seen:
                continue
            b_order = [first]
            a_between = []
            exit_ext = first[1]
            while True:
                a_adj = ext_to_a[exit_ext]
                a_between.append(a_adj)
                entry = a_adj[0] if a_adj[1] == exit_ext else a_adj[1]
                b_adj = ext_to_b[entry]
                if b_adj is first:
                    break
                b_order.append(b_adj)
                exit_ext = b_adj[0] if b_adj[1] == entry else b_adj[1]
            seen.update(b_order)
            # restart at the B-adjacency holding the cycle's smallest
            # extremity low[0], leaving through it
            low = min(b_order)
            j = b_order.index(low)
            if low[0] not in a_between[j]:
                # walked the other way round: reverse, keeping b_order[j] first
                b_order = b_order[j::-1] + b_order[:j:-1]
                a_between = a_between[j - 1 :: -1] + a_between[: j - 1 : -1]
            elif j:
                b_order = b_order[j:] + b_order[:j]
                a_between = a_between[j:] + a_between[:j]
            walks.append((low[0], b_order, a_between))
        walks.sort(key=itemgetter(0))
        self.cycles = tuple(LabeledCycle(tuple(b_order), tuple(a_between)) for _, b_order, a_between in walks)

    @property
    def n_blocks(self) -> int:
        return self.genome_a.n_blocks

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def n_linear(self) -> int:
        return self.genome_a.n_linear

    @property
    def distance(self) -> int:
        return self.n_blocks - (self.n_cycles + self.n_linear)

    @property
    def profile(self) -> tuple[int, ...]:
        """Sorting steps needed per cycle: a 2(l+1)-cycle contributes l."""
        return tuple(c.n - 1 for c in self.cycles)

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(c.length for c in self.cycles)


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

    trackers = [CycleTracker(c) for c in graph.cycles]
    steps = [iter(s.steps) for s in per_cycle]
    return tuple(trackers[m].fission_to_dcj(next(steps[m])) for m in interleaving)
