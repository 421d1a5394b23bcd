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
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .errors import InvalidFissionError, InvalidScenarioError, NotCoTailedError
from .fissions import CyclePartition, FissionScenario, require_valid
from .genome import Adjacency, DcjOp, Genome, adjacency, co_tailed, make_dcj


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
    leaving through it, so labelings are reproducible across runs.
    """

    __slots__ = ("genome_a", "genome_b", "cycles")

    def __init__(self, a: Genome, b: Genome):
        if not co_tailed(a, b):
            raise NotCoTailedError("genomes are not co-tailed")
        self.genome_a = a
        self.genome_b = b

        ext_to_a = {e: adj for adj in a.adjacencies for e in adj}
        ext_to_b = {e: adj for adj in b.adjacencies for e in adj}
        # co-tailed genomes cover exactly the same non-telomere extremities
        assert ext_to_a.keys() == ext_to_b.keys()

        cycles = []
        seen = set()
        for start in sorted(ext_to_b):
            if start in seen:
                continue
            first = ext_to_b[start]
            b_order = []
            a_between = []
            b_adj, exit_ext = first, start
            while True:
                b_order.append(b_adj)
                seen.update(b_adj)
                a_adj = ext_to_a[exit_ext]
                a_between.append(a_adj)
                entry = a_adj[0] if a_adj[1] == exit_ext else a_adj[1]
                nxt = ext_to_b[entry]
                if nxt == first:
                    break
                b_adj = nxt
                exit_ext = nxt[0] if nxt[1] == entry else nxt[1]
            cycles.append(LabeledCycle(tuple(b_order), tuple(a_between)))
        self.cycles = tuple(cycles)

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


def _shared(x: Adjacency, y: Adjacency):
    common = set(x) & set(y)
    assert len(common) == 1
    return common.pop()


class CycleTracker:
    """Mutable sorting state of one labeled cycle.

    Tracks, for every label, its successor in the current sub-cycle and the
    genome-A adjacency sitting in the gap after it, so each fission maps to
    a concrete DCJ even after earlier fissions rewired parts of the cycle.
    """

    __slots__ = ("cycle", "_succ", "_gap", "_b")

    def __init__(self, cycle: LabeledCycle):
        n = cycle.n
        self.cycle = cycle
        self._succ = {i: i % n + 1 for i in range(1, n + 1)}
        self._gap = {i: cycle.a_between[i - 1] for i in range(1, n + 1)}
        self._b = {i: cycle.b_order[i - 1] for i in range(1, n + 1)}

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
        after_base = self._succ[base]
        after_top = self._succ[top]
        cut_x = self._gap[base]
        cut_y = self._gap[top]
        # each gap adjacency shares one extremity with the label before it
        # and one with the label after; re-pair them so the excised arc
        # (after_base .. top) closes on itself and the remainder reconnects
        to_base = _shared(cut_x, self._b[base])
        to_after_base = _shared(cut_x, self._b[after_base])
        to_top = _shared(cut_y, self._b[top])
        to_after_top = _shared(cut_y, self._b[after_top])
        closing = adjacency(to_top, to_after_base)
        rejoining = adjacency(to_base, to_after_top)
        op = make_dcj((cut_x, cut_y), (closing, rejoining))
        self._succ[base] = after_top
        self._succ[top] = after_base
        self._gap[base] = rejoining
        self._gap[top] = closing
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
    cursor = [0] * graph.n_cycles
    ops = []
    for m in interleaving:
        step = per_cycle[m].steps[cursor[m]]
        cursor[m] += 1
        ops.append(trackers[m].fission_to_dcj(step))
    return tuple(ops)
