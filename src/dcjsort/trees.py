"""Labeled trees as a second code for fission scenarios.

A scenario on (1..n) maps to a tree on vertices {0..n-1}: step i hangs
below the step j whose partner it reuses as a base (below the root 0 when
its base is 1).  Encoding recovers the partners from the bases alone with
the shared kernel of :mod:`dcjsort.fissions`.  Decoding roots the tree at
0, orders children by label, lifts each vertex label onto its incoming
edge, renames vertices 1..n in preorder, and then erases edges 1..n-1 in
order with the kernel's `erase_edges`: the erased edge's parent side gives
the base, and the largest preorder name still hanging below it gives the
top.  Both directions run in O(n log n) time.  Erasing the first k edges
reproduces exactly the partition reached after k fissions, so sorting can
be watched on the tree itself.

Prüfer sequences provide counting and uniform sampling over all n^(n-2)
trees, hence over all scenarios.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import InvalidTreeError
from .fissions import (
    CyclePartition,
    FissionScenario,
    erase_edges,
    find_root,
    parse_pairs,
    partners,
    require_valid,
    step_parents,
)


class LabeledTree:
    """A tree on vertices 0..n-1, stored as a sorted edge tuple."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise InvalidTreeError(f"a tree needs at least one vertex, got n={n}")
        self.n = n
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        if len(self.edges) != n - 1:
            raise InvalidTreeError(f"a tree on {n} vertices has {n - 1} edges, got {len(self.edges)}")
        for u, v in self.edges:
            if u == v:
                raise InvalidTreeError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidTreeError(f"edge ({u}, {v}) is outside labels 0..{n - 1}")
        if len(set(self.edges)) != len(self.edges):
            raise InvalidTreeError("duplicate edge")
        # n-1 distinct edges + connectivity == tree
        neighbors = self.adjacency()
        reached = {0}
        stack = [0]
        while stack:
            for w in neighbors[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            raise InvalidTreeError("edge set is not connected")

    def adjacency(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return out

    def __eq__(self, other):
        return isinstance(other, LabeledTree) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"LabeledTree({self.n}, {list(self.edges)!r})"


def scenario_to_tree(s: FissionScenario) -> LabeledTree:
    """Hang step i below the step whose partner its base reuses."""
    require_valid(s)
    parent = step_parents(s.bases, partners(s.bases))
    return LabeledTree(s.n, ((parent[i], i) for i in range(1, s.n)))


def _rooted_preorder(t: LabeledTree) -> tuple[list[int], list[int]]:
    """Root at 0 with children in increasing label order.

    Returns (parent, preorder_name) indexed by vertex, where preorder_name
    runs 1..n and parent[0] is 0.
    """
    adj = t.adjacency()
    parent = [0] + [-1] * (t.n - 1)
    preorder = [0] * t.n
    counter = 0
    stack = [0]
    while stack:
        v = stack.pop()
        counter += 1
        preorder[v] = counter
        children = sorted((w for w in adj[v] if parent[w] < 0), reverse=True)
        for w in children:
            parent[w] = v
            stack.append(w)
    return parent, preorder


def tree_to_scenario(t: LabeledTree) -> FissionScenario:
    """Read the scenario off the tree by erasing edges 1..n-1 in order.

    Edge i is the edge entering vertex i from its parent.  Its base is the
    parent's preorder name; its top is the largest preorder name still
    connected below vertex i once edges 1..i-1 are gone.
    """
    return erase_edges(*_rooted_preorder(t))


def erase_edges_components(t: LabeledTree, s: FissionScenario, k: int) -> CyclePartition:
    """Partition of {1..n} left by erasing the first k edges of `t`.

    `t` must encode `s`; the components, read as preorder names, equal the
    partition after the first k fissions of the scenario.
    """
    n = t.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must be in 0..{n - 1}, got {k}")
    if scenario_to_tree(s) != t:
        raise InvalidTreeError("tree does not encode the given scenario")
    parent, preorder = _rooted_preorder(t)
    link = list(range(n))
    for i in range(k + 1, n):
        link[find_root(link, i)] = find_root(link, parent[i])
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find_root(link, v), []).append(preorder[v])
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def prufer_encode(t: LabeledTree) -> tuple[int, ...]:
    """Standard code: repeatedly strip the smallest leaf, record its neighbor."""
    n = t.n
    if n <= 2:
        return ()
    neighbors = {v: set(ws) for v, ws in t.adjacency().items()}
    leaves = [v for v in range(n) if len(neighbors[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        nb = neighbors[leaf].pop()
        neighbors[nb].remove(leaf)
        seq.append(nb)
        if len(neighbors[nb]) == 1:
            heapq.heappush(leaves, nb)
    return tuple(seq)


def prufer_decode(seq: Sequence[int], n: int) -> LabeledTree:
    """Inverse of prufer_encode; `seq` has length n-2 over labels 0..n-1."""
    seq = tuple(seq)
    if n < 1:
        raise InvalidTreeError(f"a tree needs at least one vertex, got n={n}")
    expected = max(n - 2, 0)
    if len(seq) != expected:
        raise InvalidTreeError(f"sequence length {len(seq)}, expected {expected} for {n} vertices")
    if any(not 0 <= v < n for v in seq):
        raise InvalidTreeError("sequence values must be vertex labels")
    if n == 1:
        return LabeledTree(1, ())
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return LabeledTree(n, edges)


def tree_to_dot(t: LabeledTree) -> str:
    """Deterministic DOT text, edges sorted."""
    covered = {v for e in t.edges for v in e}
    lines = ["graph scenario_tree {"]
    lines += [f"  {v};" for v in range(t.n) if v not in covered]
    lines += [f"  {u} -- {v};" for u, v in t.edges]
    lines.append("}")
    return "\n".join(lines)


def format_tree(t: LabeledTree) -> str:
    """Text form: n on the first line, then one "u v" edge per line."""
    return "\n".join([str(t.n)] + [f"{u} {v}" for u, v in t.edges])


def parse_tree(text: str) -> LabeledTree:
    return LabeledTree(*parse_pairs(text, "tree", "vertex count", "u v"))
