"""Independent output checks; nothing here imports dcjsort.

Each check takes the captured stdout of one CLI call and returns None when
the output is correct, or a one-line reason.  Genomes are replayed on the
extremity model of :mod:`generators`, and distances come from its
union-find cycle count, not from the program under test.
"""

from __future__ import annotations

import json

import generators as gen


def parking_error(values, length: int) -> str | None:
    if len(values) != length:
        return f"parking function has length {len(values)}, expected {length}"
    if any(v > i for i, v in enumerate(sorted(values), start=1)) or min(values, default=1) < 1:
        return f"not a parking function: {values[:8]}..."
    return None


def split(block: list[int], base: int, top: int) -> tuple[list[int], list[int]]:
    """Fission of an increasing cycle: (base, top] leaves as its own cycle."""
    inner = [x for x in block if base < x <= top]
    outer = [x for x in block if not base < x <= top]
    return outer, inner


def _ints(line: str) -> list[int]:
    return [int(tok) for tok in line.split()]


def check_realize(out: str, a, b) -> str | None:
    """The JSON steps replay A into B, each lowering the distance by 1."""
    pa, pb = gen.partner_map(a), gen.partner_map(b)
    n_blocks = sum(len(blocks) for _, blocks in a)
    n_linear = sum(1 for kind, _ in a if kind == "linear")
    d = gen.distance(pa, pb, n_blocks, n_linear)
    steps = json.loads(out)
    if len(steps) != d:
        return f"{len(steps)} steps, expected d={d}"
    for i, step in enumerate(steps, start=1):
        cut = [(gen.right_ext(int(x)), gen.left_ext(int(y))) for x, y in step["dcj"]["cut"]]
        form = [(gen.right_ext(int(x)), gen.left_ext(int(y))) for x, y in step["dcj"]["form"]]
        if any(pa.get(u) != v for u, v in cut) or cut[0] in (cut[1], cut[1][::-1]):
            return f"step {i} cuts adjacencies that are not in the genome"
        exts = sorted(e for adj in cut for e in adj)
        if sorted(e for adj in form for e in adj) != exts:
            return f"step {i} does not re-pair the four cut extremities"
        if {frozenset(x) for x in form} == {frozenset(x) for x in cut}:
            return f"step {i} is the identity rewiring"
        for u, v in form:
            pa[u], pa[v] = v, u
        now = gen.distance(pa, pb, n_blocks, n_linear)
        if now != d - 1:
            return f"step {i} moves the distance from {d} to {now}"
        d = now
    return None if pa == pb else "replay does not end at genome B"


def check_cycle_parking(out: str, cycle_sizes) -> str | None:
    """One parking function per cycle, of length (cycle size - 1)."""
    lines = out[:-1].split("\n")
    if len(lines) != len(cycle_sizes):
        return f"{len(lines)} lines, expected one per cycle ({len(cycle_sizes)})"
    lengths = []
    for line in lines:
        values = _ints(line)
        if values and parking_error(values, len(values)):
            return parking_error(values, len(values))
        lengths.append(len(values))
    if sorted(lengths) != sorted(s - 1 for s in cycle_sizes):
        return "parking-function lengths do not match the cycle sizes"
    return None


def check_tree(out: str, n: int) -> str | None:
    rows = out.split("\n")[:-1]
    if not rows or _ints(rows[0]) != [n]:
        return f"tree header is not {n}"
    edges = [tuple(_ints(r)) for r in rows[1:]]
    if len(edges) != n - 1 or any(len(e) != 2 or not all(0 <= v < n for v in e) for e in edges):
        return f"expected {n - 1} edges on vertices 0..{n - 1}"
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"edge ({u}, {v}) closes a cycle"
        parent[ru] = rv
    return None


def check_parking(out: str, length: int, expected=None) -> str | None:
    values = _ints(out)
    if expected is not None and values != list(expected):
        return "bases differ from the input scenario"
    return parking_error(values, length)


def check_fissions(out: str, n: int, bases) -> str | None:
    """The scenario replays from (1..n) to singletons with the given bases."""
    rows = out.split("\n")[:-1]
    if not rows or _ints(rows[0]) != [n]:
        return f"scenario header is not {n}"
    steps = [tuple(_ints(r)) for r in rows[1:]]
    if [s[0] for s in steps] != list(bases):
        return "bases differ from the input parking function"
    owner = dict.fromkeys(range(1, n + 1), 0)
    blocks = [list(range(1, n + 1))]
    for i, (base, top) in enumerate(steps, start=1):
        if base not in owner or top not in owner or base >= top or owner[base] != owner[top]:
            return f"step {i} ({base}, {top}) is not a fission of one cycle"
        j = owner[base]
        blocks[j], inner = split(blocks[j], base, top)
        for x in inner:
            owner[x] = len(blocks)
        blocks.append(inner)
    return None if len(blocks) == n else "scenario does not end in singletons"


def check_distance(out: str, stats: dict) -> str | None:
    got = json.loads(out)
    want = {key: stats[key] for key in ("N", "C", "K", "d")}
    if {key: got.get(key) for key in want} != want:
        return f"distance report {got.get('N'), got.get('C'), got.get('K'), got.get('d')} != {tuple(want.values())}"
    if sorted(got["cycles"]) != [2 * s for s in stats["cycle_sizes"]]:
        return "cycle lengths differ"
    return None
